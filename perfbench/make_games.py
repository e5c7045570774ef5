"""Regenerate the benchmark's game files and the initial gains in its configs.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/make_games.py

``games/benchmark_h5.json`` is the bundled 3-state game at horizon 5, saved
so that ``reference.py`` can read its matrices without ``lqgames``.
``games/h10.json`` holds the same stage matrices and the same isotropic noise
(sigma 0.05) over horizon 10, built with ``time_invariant_game``.  Every
config starts from the bundled initial gain, repeated over its horizon.
"""

import json
from pathlib import Path

from lqgames import benchmark_game, benchmark_initial_gain, isotropic_noise, save_game, time_invariant_game

HERE = Path(__file__).resolve().parent


def main() -> None:
    g = benchmark_game()
    save_game(g, HERE / "games" / "benchmark_h5.json")
    h10 = time_invariant_game(g.A[0], g.B[0], g.D[0], g.Q[0], g.Ru[0], g.Rw[0], horizon=10,
                              noise=isotropic_noise(3, 10, sigma=0.05))
    save_game(h10, HERE / "games" / "h10.json")
    K = benchmark_initial_gain().blocks[0].tolist()
    for name, horizon in (("zo_desk.json", 5), ("exact_br.json", 5), ("exact_nested_h10.json", 10)):
        path = HERE / "configs" / name
        cfg = json.loads(path.read_text())
        cfg["initial_gain"] = [K] * horizon
        body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in cfg.items())
        path.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    main()
