"""Finite-horizon zero-sum LQ game instances as stacked stage arrays.

A game is described stage-wise by dynamics matrices ``A_h, B_h, D_h``
(``h = 0..N-1``), cost weights ``Q_h`` (``h = 0..N``), ``Ru_h, Rw_h``
(``h = 0..N-1``) and a bounded noise model.  Each family is held as one
array with the stage index first, and a gain as one (N, p, m) array, so
the oracles in ``certify`` work on all stages at once.  The dense lifted
block form lives in ``verify``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, get_args

import numpy as np

NoiseKind = Literal["truncated-gaussian", "scaled-uniform", "deterministic-zero"]

# Numerical tolerance for symmetry / definiteness validation of inputs.
_SYM_TOL = 1e-10
# redraw rounds before a truncated-Gaussian bound counts as too tight: 2^-100 odds at 50% rejection
_REDRAW_ROUNDS = 100


class ModelError(ValueError):
    """Raised when a game description is dimensionally or numerically invalid."""


def _stack(blocks, name: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Stack 2-d blocks into a read-only (count, rows, cols) float array.

    Every block must have ``shape`` (by default the first block's); errors
    name the offending block as ``name[i]``.
    """
    try:
        out = np.array(blocks, dtype=float)
    except (TypeError, ValueError):  # ragged or non-numeric; diagnosed below
        out = None
    if (out is None or out.ndim != 3 or len(out) == 0
            or (shape is not None and out.shape[1:] != shape)):
        for i, b in enumerate(blocks):
            try:
                a = np.asarray(b, dtype=float)
            except (TypeError, ValueError):
                raise ModelError(f"{name}[{i}] is not a numeric matrix") from None
            if a.ndim != 2:
                raise ModelError(f"{name}[{i}] must be a 2-d matrix, got shape {a.shape}")
            shape = a.shape if shape is None else shape
            if a.shape != shape:
                raise ModelError(f"{name}[{i}] has shape {a.shape}, expected {shape}")
        raise ModelError(f"{name} needs at least one 2-d block")
    out.setflags(write=False)
    return out


def _check_finite(stack: np.ndarray, name: str) -> None:
    bad = ~np.isfinite(stack).all(axis=(1, 2))
    if bad.any():
        raise ModelError(f"{name}[{int(np.argmax(bad))}] has non-finite entries")


def _check_definite(stack: np.ndarray, name: str, strict: bool) -> None:
    """Every block symmetric and positive semidefinite (definite if ``strict``)."""
    for i, a in enumerate(stack):
        if not np.allclose(a, a.T, atol=_SYM_TOL * (1.0 + np.abs(a).max(initial=0.0))):
            raise ModelError(f"{name}[{i}] is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (stack + stack.swapaxes(1, 2)))
    floor = _SYM_TOL * (1.0 + np.abs(w[:, -1]))
    bad = w[:, 0] <= floor if strict else w[:, 0] < -floor
    if bad.any():
        i = int(np.argmax(bad))
        kind = "positive definite" if strict else "positive semidefinite"
        raise ModelError(f"{name}[{i}] is not {kind} (lambda_min={w[i, 0]:.3e})")


@dataclass(frozen=True)
class NoiseModel:
    """Bounded zero-mean noise for the initial state and per-stage disturbances.

    ``covariance_blocks`` has shape (N+1, m, m): one block for x_0 followed by
    one per stage noise.  Samples are guaranteed to satisfy the norm bound
    almost surely.  The ``deterministic-zero`` kind fixes x_0 to a given
    vector and zeroes all stage noise; it is a testing convenience and its
    covariance blocks are the (degenerate) second moments of that draw.
    """

    kind: NoiseKind
    covariance_blocks: np.ndarray
    bound: float
    fixed_initial_state: np.ndarray | None = None
    # per block: the Cholesky factor (set in __post_init__, used by ``sample``)
    _factors: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.kind not in get_args(NoiseKind):
            raise ModelError(f"unknown noise kind {self.kind!r}; expected one of "
                             + ", ".join(get_args(NoiseKind)))
        blocks = _stack(self.covariance_blocks, "covariance block")
        object.__setattr__(self, "covariance_blocks", blocks)
        m = blocks.shape[1]
        if blocks.shape[2] != m:
            raise ModelError(f"covariance blocks have shape {blocks.shape[1:]}, expected {(m, m)}")
        _check_finite(blocks, "covariance block")
        _check_definite(blocks, "covariance block", strict=self.kind != "deterministic-zero")
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise ModelError(f"noise bound must be a finite positive number, got {self.bound!r}")
        if self.kind == "deterministic-zero":
            if self.fixed_initial_state is None:
                raise ModelError("deterministic-zero noise requires a fixed initial state")
            x0 = np.asarray(self.fixed_initial_state, dtype=float).reshape(-1).copy()
            if x0.shape != (m,):
                raise ModelError(f"fixed initial state has dim {x0.shape[0]}, expected {m}")
            if not np.isfinite(x0).all():
                raise ModelError("fixed initial state has non-finite entries")
            x0.setflags(write=False)
            object.__setattr__(self, "fixed_initial_state", x0)
        else:
            if self.fixed_initial_state is not None:
                raise ModelError("fixed initial state only valid for deterministic-zero noise")
            object.__setattr__(self, "_factors", np.linalg.cholesky(blocks))

    @property
    def dim(self) -> int:
        return self.covariance_blocks.shape[1]

    @property
    def phi(self) -> float:
        """Smallest eigenvalue of the block-diagonal lifted covariance."""
        return float(np.linalg.eigvalsh(self.covariance_blocks)[:, 0].min())

    @property
    def normals_per_sample(self) -> int:
        """Standard normals ``sample`` draws per vector before any rejection redraw."""
        if self.kind != "truncated-gaussian":
            return 0
        return self.covariance_blocks.shape[0] * self.dim

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` lifted noise vectors, stage-major: shape (N+1, m, count).

        ``out[0]`` holds the x_0 of each sample, ``out[1..N]`` the stage
        noises xi_0..xi_{N-1}.  Blocks are drawn one after another from
        ``rng`` as (count, m) arrays, each with its rejection redraws before
        the next block, and written as ``factor @ z.T`` into ``out[i]``.
        Raises ModelError for a sample still rejected after ``_REDRAW_ROUNDS``.
        """
        n_blocks, m, _ = self.covariance_blocks.shape
        out = np.empty((n_blocks, m, count))
        if self.kind == "deterministic-zero":
            out[:] = 0.0
            out[0] = self.fixed_initial_state[:, None]
            return out
        bound_sq = self.bound * self.bound
        for factor, block in zip(self._factors, out):
            if self.kind == "truncated-gaussian":
                np.matmul(factor, rng.standard_normal((count, m)).T, out=block)
                bad = np.einsum("ic,ic->c", block, block) > bound_sq
                # rejection loop; with the default bound this almost never runs
                rounds = 0
                while bad.any():
                    if rounds == _REDRAW_ROUNDS:
                        raise ModelError(
                            f"truncated-Gaussian noise bound {self.bound:g} still rejects a "
                            f"sample after {rounds} redraws; the bound is too tight for the "
                            "noise covariance")
                    rounds += 1
                    block[:, bad] = factor @ rng.standard_normal((int(bad.sum()), m)).T
                    bad = np.einsum("ic,ic->c", block, block) > bound_sq
            else:  # scaled-uniform: unit-variance uniform coordinates
                np.matmul(factor, rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(count, m)).T,
                          out=block)
        return out

    @staticmethod
    def default_bound(covariance_blocks) -> float:
        """Truncation radius keeping Gaussian rejection mass below ~1e-8."""
        lam = float(np.linalg.eigvalsh(np.asarray(covariance_blocks, dtype=float)).max())
        return 6.0 * math.sqrt(lam)


def isotropic_noise(m: int, horizon: int, sigma: float = 0.05,
                    kind: NoiseKind = "truncated-gaussian") -> NoiseModel:
    blocks = np.broadcast_to(sigma * np.eye(m), (horizon + 1, m, m))
    return NoiseModel(kind=kind, covariance_blocks=blocks, bound=NoiseModel.default_bound(blocks))


def deterministic_noise(x0, horizon: int) -> NoiseModel:
    """Zero noise with a pinned initial state; second-moment blocks follow."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    m = x0.shape[0]
    blocks = np.zeros((horizon + 1, m, m))
    blocks[0] = np.outer(x0, x0)
    bound = max(1.0, float(np.linalg.norm(x0)))
    return NoiseModel(kind="deterministic-zero", covariance_blocks=blocks,
                      bound=bound, fixed_initial_state=x0)


@dataclass(frozen=True)
class LqGame:
    """A finite-horizon zero-sum LQ game, stored as stacked stage matrices.

    ``A, B, D, Ru, Rw`` have shapes (N, m, m), (N, m, d), (N, m, n), (N, d, d)
    and (N, n, n); ``Q`` has shape (N+1, m, m), its last block the terminal
    weight.  The constructor also accepts sequences of per-stage blocks.
    Immutable after construction; safe to share across threads.
    """

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    Q: np.ndarray
    Ru: np.ndarray
    Rw: np.ndarray
    noise: NoiseModel

    def __post_init__(self):
        m = _stack(self.A, "A").shape[1]
        d = _stack(self.B, "B").shape[2]
        n = _stack(self.D, "D").shape[2]
        shapes = {"A": (m, m), "B": (m, d), "D": (m, n), "Q": (m, m), "Ru": (d, d), "Rw": (n, n)}
        for name, shape in shapes.items():
            stack = _stack(getattr(self, name), name, shape)
            _check_finite(stack, name)
            object.__setattr__(self, name, stack)
        N = len(self.A)
        if not all(len(getattr(self, k)) == N for k in ("B", "D", "Ru", "Rw")):
            raise ModelError("A, B, D, Ru, Rw must all have one matrix per stage")
        if len(self.Q) != N + 1:
            raise ModelError(f"Q needs {N + 1} matrices (stages plus terminal), got {len(self.Q)}")
        _check_definite(self.Q, "Q", strict=False)
        _check_definite(self.Ru, "Ru", strict=True)
        _check_definite(self.Rw, "Rw", strict=True)
        if self.noise.dim != m:
            raise ModelError(f"noise dimension {self.noise.dim} does not match state dimension {m}")
        if len(self.noise.covariance_blocks) != N + 1:
            raise ModelError(
                f"noise has {len(self.noise.covariance_blocks)} covariance blocks, expected {N + 1}")

    @property
    def horizon(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    @property
    def d(self) -> int:
        return self.B.shape[2]

    @property
    def n(self) -> int:
        return self.D.shape[2]


def time_invariant_game(A, B, D, Q, Ru, Rw, horizon: int, noise: NoiseModel,
                        terminal_Q=None) -> LqGame:
    """Replicate a single set of stage matrices across the whole horizon."""
    tQ = Q if terminal_Q is None else terminal_Q
    return LqGame(A=[A] * horizon, B=[B] * horizon, D=[D] * horizon,
                  Q=[Q] * horizon + [tQ], Ru=[Ru] * horizon, Rw=[Rw] * horizon,
                  noise=noise)


@dataclass(frozen=True)
class StructuredGain:
    """A per-stage feedback gain: ``blocks`` of shape (N, p, m).

    Its lift is ``[diag(blocks) | 0]``.  ``side`` is "K" (minimizer, d x m
    blocks) or "L" (maximizer, n x m blocks).  The constructor also accepts a
    sequence of per-stage blocks.
    """

    side: Literal["K", "L"]
    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", _stack(self.blocks, "gain block"))

    @property
    def horizon(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.blocks.shape[1:]

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.blocks))

    def _check_compatible(self, other: "StructuredGain") -> None:
        if self.side != other.side or self.blocks.shape != other.blocks.shape:
            raise ModelError("cannot combine gains with different side or shape")

    def __add__(self, other: "StructuredGain") -> "StructuredGain":
        self._check_compatible(other)
        return StructuredGain(self.side, self.blocks + other.blocks)

    def __sub__(self, other: "StructuredGain") -> "StructuredGain":
        self._check_compatible(other)
        return StructuredGain(self.side, self.blocks - other.blocks)

    def scale(self, c: float) -> "StructuredGain":
        return StructuredGain(self.side, c * self.blocks)


def zero_gain(game: LqGame, side: Literal["K", "L"]) -> StructuredGain:
    p = game.d if side == "K" else game.n
    return StructuredGain(side, np.zeros((game.horizon, p, game.m)))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def game_to_dict(game: LqGame) -> dict:
    noise: dict = {
        "kind": game.noise.kind,
        "covariance_blocks": game.noise.covariance_blocks.tolist(),
        "bound": game.noise.bound,
    }
    if game.noise.fixed_initial_state is not None:
        noise["fixed_initial_state"] = game.noise.fixed_initial_state.tolist()
    return {
        "horizon": game.horizon,
        "stages": [
            {
                "A": game.A[h].tolist(),
                "B": game.B[h].tolist(),
                "D": game.D[h].tolist(),
                "Q": game.Q[h].tolist(),
                "Ru": game.Ru[h].tolist(),
                "Rw": game.Rw[h].tolist(),
            }
            for h in range(game.horizon)
        ],
        "terminal_Q": game.Q[game.horizon].tolist(),
        "noise": noise,
    }


def reject_booleans(value, where: str) -> None:
    """Raise ModelError for a boolean anywhere in a JSON value: numpy reads one as 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ModelError(f"{where} must be a number, got {json.dumps(value)}")
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        reject_booleans(item, f"{where}[{key!r}]")


def game_from_dict(doc: dict) -> LqGame:
    reject_booleans(doc, "game")  # no field of a game document is a boolean
    try:
        N = doc["horizon"]
        if not isinstance(N, int):
            raise ModelError(f"game document horizon must be an integer, got {N!r}")
        stages = doc["stages"]
        if len(stages) != N:
            raise ModelError(f"document declares horizon {N} but has {len(stages)} stages")
        noise_doc = doc["noise"]
        noise = NoiseModel(
            kind=noise_doc["kind"],
            covariance_blocks=noise_doc["covariance_blocks"],
            bound=float(noise_doc["bound"]),
            fixed_initial_state=noise_doc.get("fixed_initial_state"),
        )
        return LqGame(
            A=[s["A"] for s in stages], B=[s["B"] for s in stages], D=[s["D"] for s in stages],
            Q=[s["Q"] for s in stages] + [doc["terminal_Q"]],
            Ru=[s["Ru"] for s in stages], Rw=[s["Rw"] for s in stages],
            noise=noise,
        )
    except KeyError as exc:
        raise ModelError(f"game document missing key {exc}") from exc
    except ModelError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # a field of the wrong type or value
        raise ModelError(f"malformed game document: {exc}") from exc


def save_game(game: LqGame, path) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game), indent=2) + "\n")


def load_game(path) -> LqGame:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    return game_from_dict(doc)


# ---------------------------------------------------------------------------
# Bundled benchmark instances
# ---------------------------------------------------------------------------

def benchmark_game() -> LqGame:
    """The 3-state / 3-input / 3-disturbance benchmark with horizon 5."""
    A = np.array([[1.0, 0.0, -5.0],
                  [-1.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    B = np.array([[1.0, -10.0, 0.0],
                  [0.0, 3.0, 1.0],
                  [-1.0, 0.0, 2.0]])
    D = np.array([[0.5, 0.0, 0.0],
                  [0.0, 0.2, 0.0],
                  [0.0, 0.0, 0.2]])
    Q = np.array([[2.0, -1.0, 0.0],
                  [-1.0, 2.0, -1.0],
                  [0.0, -1.0, 2.0]])
    Ru = np.array([[4.0, -1.0, 0.0],
                   [-1.0, 4.0, -2.0],
                   [0.0, -2.0, 3.0]])
    Rw = 5.0 * np.eye(3)
    return time_invariant_game(A, B, D, Q, Ru, Rw, horizon=5,
                               noise=isotropic_noise(3, 5, sigma=0.05))


def benchmark_initial_gain() -> StructuredGain:
    """A feasible starting gain for the bundled benchmark."""
    K = np.array([[-0.08, 0.35, 0.62],
                  [-0.21, 0.19, 0.32],
                  [-0.06, 0.10, 0.41]])
    return StructuredGain("K", [K] * 5)


def scalar_demo_game(sigma: float = 1.0, deterministic: bool = False) -> LqGame:
    """A hand-checkable scalar game: m=d=n=1, N=1."""
    one = np.array([[1.0]])
    noise = (deterministic_noise([1.0], 1) if deterministic
             else isotropic_noise(1, 1, sigma=sigma))
    return LqGame(
        A=(one,), B=(one,), D=(np.array([[0.5]]),),
        Q=(one, one), Ru=(one,), Rw=(np.array([[5.0]]),),
        noise=noise,
    )


_BUILTINS = {
    "benchmark": benchmark_game,
    "scalar_demo": scalar_demo_game,
}


def resolve_game(source: str) -> LqGame:
    """Load a game from a builtin name or a file path."""
    if source in _BUILTINS:
        return _BUILTINS[source]()
    path = Path(source)
    if path.is_file():
        return load_game(path)
    raise ModelError(f"unknown game source {source!r} (not a builtin name or existing file)")
