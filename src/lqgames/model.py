"""Finite-horizon zero-sum LQ game instances and their lifted block form.

A game is described stage-wise by dynamics matrices ``A_h, B_h, D_h``
(``h = 0..N-1``), cost weights ``Q_h`` (``h = 0..N``), ``Ru_h, Rw_h``
(``h = 0..N-1``) and a bounded noise model.  The lifted form stacks all
stages into a single block system whose closed loop is nilpotent, so every
Lyapunov-type sum is finite and exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

NoiseKind = Literal["truncated-gaussian", "scaled-uniform", "deterministic-zero"]

# Numerical tolerance for symmetry / definiteness validation of inputs.
_SYM_TOL = 1e-10


class ModelError(ValueError):
    """Raised when a game description is dimensionally or numerically invalid."""


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ModelError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    a = a.copy()
    a.setflags(write=False)
    return a


def _check_symmetric(a: np.ndarray, name: str) -> None:
    if not np.allclose(a, a.T, atol=_SYM_TOL * (1.0 + np.abs(a).max(initial=0.0))):
        raise ModelError(f"{name} is not symmetric")


def _check_psd(a: np.ndarray, name: str) -> None:
    _check_symmetric(a, name)
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    if w.min() < -_SYM_TOL * (1.0 + abs(w.max())):
        raise ModelError(f"{name} is not positive semidefinite (lambda_min={w.min():.3e})")


def _check_pd(a: np.ndarray, name: str) -> None:
    _check_symmetric(a, name)
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    if w.min() <= _SYM_TOL * (1.0 + abs(w.max())):
        raise ModelError(f"{name} is not positive definite (lambda_min={w.min():.3e})")


@dataclass(frozen=True)
class NoiseModel:
    """Bounded zero-mean noise for the initial state and per-stage disturbances.

    ``covariance_blocks`` holds N+1 symmetric blocks: one for x_0 followed by
    one per stage noise.  Samples are guaranteed to satisfy the norm bound
    almost surely.  The ``deterministic-zero`` kind fixes x_0 to a given
    vector and zeroes all stage noise; it is a testing convenience and its
    covariance blocks are the (degenerate) second moments of that draw.
    """

    kind: NoiseKind
    covariance_blocks: tuple[np.ndarray, ...]
    bound: float
    fixed_initial_state: np.ndarray | None = None
    # per block: the transposed Cholesky factor (set in __post_init__, used
    # by ``sample``)
    _factors: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        blocks = tuple(_as_matrix(b, f"covariance block {i}") for i, b in enumerate(self.covariance_blocks))
        object.__setattr__(self, "covariance_blocks", blocks)
        m = blocks[0].shape[0]
        for i, b in enumerate(blocks):
            if b.shape != (m, m):
                raise ModelError(f"covariance block {i} has shape {b.shape}, expected {(m, m)}")
            if self.kind == "deterministic-zero":
                _check_psd(b, f"covariance block {i}")
            else:
                _check_pd(b, f"covariance block {i}")
        if self.bound <= 0:
            raise ModelError("noise bound must be positive")
        if self.kind == "deterministic-zero":
            if self.fixed_initial_state is None:
                raise ModelError("deterministic-zero noise requires a fixed initial state")
            x0 = np.asarray(self.fixed_initial_state, dtype=float).reshape(-1).copy()
            if x0.shape != (m,):
                raise ModelError(f"fixed initial state has dim {x0.shape[0]}, expected {m}")
            x0.setflags(write=False)
            object.__setattr__(self, "fixed_initial_state", x0)
        elif self.fixed_initial_state is not None:
            raise ModelError("fixed initial state only valid for deterministic-zero noise")
        if self.kind != "deterministic-zero":
            object.__setattr__(self, "_factors", tuple(np.linalg.cholesky(b).T for b in blocks))

    @property
    def dim(self) -> int:
        return self.covariance_blocks[0].shape[0]

    @property
    def phi(self) -> float:
        """Smallest eigenvalue of the block-diagonal lifted covariance."""
        return min(float(np.linalg.eigvalsh(b).min()) for b in self.covariance_blocks)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` lifted noise vectors, shape (count, N+1, m).

        Row 0 of each sample is x_0, rows 1..N the stage noises xi_0..xi_{N-1}.
        Blocks are drawn one after another from ``rng``, each with its
        rejection redraws before the next block.
        """
        m = self.dim
        n_blocks = len(self.covariance_blocks)
        out = np.empty((count, n_blocks, m))
        if self.kind == "deterministic-zero":
            out[:] = 0.0
            out[:, 0, :] = self.fixed_initial_state
            return out
        bound_sq = self.bound * self.bound
        for i, factor in enumerate(self._factors):
            if self.kind == "truncated-gaussian":
                draws = rng.standard_normal((count, m)) @ factor
                bad = np.einsum("ci,ci->c", draws, draws) > bound_sq
                # rejection loop; with the default bound this almost never runs
                while bad.any():
                    draws[bad] = rng.standard_normal((int(bad.sum()), m)) @ factor
                    bad = np.einsum("ci,ci->c", draws, draws) > bound_sq
            else:  # scaled-uniform: unit-variance uniform coordinates
                draws = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(count, m)) @ factor
            out[:, i, :] = draws
        return out

    @staticmethod
    def default_bound(covariance_blocks: Sequence[np.ndarray]) -> float:
        """Truncation radius keeping Gaussian rejection mass below ~1e-8."""
        lam = max(float(np.linalg.eigvalsh(np.asarray(b, dtype=float)).max()) for b in covariance_blocks)
        return 6.0 * math.sqrt(lam)


def isotropic_noise(m: int, horizon: int, sigma: float = 0.05,
                    kind: NoiseKind = "truncated-gaussian") -> NoiseModel:
    blocks = tuple(sigma * np.eye(m) for _ in range(horizon + 1))
    return NoiseModel(kind=kind, covariance_blocks=blocks, bound=NoiseModel.default_bound(blocks))


def deterministic_noise(x0, horizon: int) -> NoiseModel:
    """Zero noise with a pinned initial state; second-moment blocks follow."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    m = x0.shape[0]
    blocks = (np.outer(x0, x0),) + tuple(np.zeros((m, m)) for _ in range(horizon))
    bound = max(1.0, float(np.linalg.norm(x0)))
    return NoiseModel(kind="deterministic-zero", covariance_blocks=blocks,
                      bound=bound, fixed_initial_state=x0)


@dataclass(frozen=True)
class LqGame:
    """A finite-horizon zero-sum LQ game, stored stage-wise.

    Immutable after construction; safe to share across threads.
    """

    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    D: tuple[np.ndarray, ...]
    Q: tuple[np.ndarray, ...]
    Ru: tuple[np.ndarray, ...]
    Rw: tuple[np.ndarray, ...]
    noise: NoiseModel

    def __post_init__(self):
        for name in ("A", "B", "D", "Q", "Ru", "Rw"):
            mats = tuple(_as_matrix(b, f"{name}[{i}]") for i, b in enumerate(getattr(self, name)))
            object.__setattr__(self, name, mats)
        N = len(self.A)
        if N < 1:
            raise ModelError("horizon must be at least 1")
        if not (len(self.B) == len(self.D) == len(self.Ru) == len(self.Rw) == N):
            raise ModelError("A, B, D, Ru, Rw must all have one matrix per stage")
        if len(self.Q) != N + 1:
            raise ModelError(f"Q needs {N + 1} matrices (stages plus terminal), got {len(self.Q)}")
        m = self.A[0].shape[0]
        d = self.B[0].shape[1]
        n = self.D[0].shape[1]
        for h in range(N):
            if self.A[h].shape != (m, m):
                raise ModelError(f"A[{h}] has shape {self.A[h].shape}, expected {(m, m)}")
            if self.B[h].shape != (m, d):
                raise ModelError(f"B[{h}] has shape {self.B[h].shape}, expected {(m, d)}")
            if self.D[h].shape != (m, n):
                raise ModelError(f"D[{h}] has shape {self.D[h].shape}, expected {(m, n)}")
            _check_psd(self.Q[h], f"Q[{h}]")
            _check_pd(self.Ru[h], f"Ru[{h}]")
            _check_pd(self.Rw[h], f"Rw[{h}]")
        _check_psd(self.Q[N], f"Q[{N}]")
        if self.noise.dim != m:
            raise ModelError(f"noise dimension {self.noise.dim} does not match state dimension {m}")
        if len(self.noise.covariance_blocks) != N + 1:
            raise ModelError(
                f"noise has {len(self.noise.covariance_blocks)} covariance blocks, expected {N + 1}")

    @property
    def horizon(self) -> int:
        return len(self.A)

    @property
    def m(self) -> int:
        return self.A[0].shape[0]

    @property
    def d(self) -> int:
        return self.B[0].shape[1]

    @property
    def n(self) -> int:
        return self.D[0].shape[1]

    def compact(self) -> "CompactOperators":
        return build_compact(self)


def time_invariant_game(A, B, D, Q, Ru, Rw, horizon: int, noise: NoiseModel,
                        terminal_Q=None) -> LqGame:
    """Replicate a single set of stage matrices across the whole horizon."""
    tQ = Q if terminal_Q is None else terminal_Q
    return LqGame(
        A=tuple(A for _ in range(horizon)),
        B=tuple(B for _ in range(horizon)),
        D=tuple(D for _ in range(horizon)),
        Q=tuple(Q for _ in range(horizon)) + (tQ,),
        Ru=tuple(Ru for _ in range(horizon)),
        Rw=tuple(Rw for _ in range(horizon)),
        noise=noise,
    )


@dataclass(frozen=True)
class StructuredGain:
    """A per-stage feedback gain with the lifted sparsity pattern.

    The lift places stage blocks on the block diagonal followed by a zero
    column block: ``[diag(blocks) | 0]``.  ``side`` is "K" (minimizer,
    d x m blocks) or "L" (maximizer, n x m blocks).
    """

    side: Literal["K", "L"]
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(_as_matrix(b, f"gain block {i}") for i, b in enumerate(self.blocks))
        if not blocks:
            raise ModelError("gain needs at least one stage block")
        shape = blocks[0].shape
        for i, b in enumerate(blocks):
            if b.shape != shape:
                raise ModelError(f"gain block {i} has shape {b.shape}, expected {shape}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def horizon(self) -> int:
        return len(self.blocks)

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.blocks[0].shape

    def lift(self) -> np.ndarray:
        """Materialize the full [diag(blocks) | 0] matrix."""
        N = self.horizon
        p, m = self.block_shape
        full = np.zeros((p * N, m * (N + 1)))
        for h, b in enumerate(self.blocks):
            full[h * p:(h + 1) * p, h * m:(h + 1) * m] = b
        return full

    def frobenius_norm(self) -> float:
        return math.sqrt(sum(float(np.sum(b * b)) for b in self.blocks))

    def __add__(self, other: "StructuredGain") -> "StructuredGain":
        if self.side != other.side or self.horizon != other.horizon:
            raise ModelError("cannot add gains with different side or horizon")
        return StructuredGain(self.side, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "StructuredGain") -> "StructuredGain":
        if self.side != other.side or self.horizon != other.horizon:
            raise ModelError("cannot subtract gains with different side or horizon")
        return StructuredGain(self.side, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def scale(self, c: float) -> "StructuredGain":
        return StructuredGain(self.side, tuple(c * b for b in self.blocks))


def zero_gain(game: LqGame, side: Literal["K", "L"]) -> StructuredGain:
    p = game.d if side == "K" else game.n
    return StructuredGain(side, tuple(np.zeros((p, game.m)) for _ in range(game.horizon)))


def lift_gain(blocks: Sequence[np.ndarray], side: Literal["K", "L"]) -> StructuredGain:
    return StructuredGain(side=side, blocks=tuple(np.asarray(b, dtype=float) for b in blocks))


def validate_gain(candidate: np.ndarray, side: Literal["K", "L"], horizon: int) -> StructuredGain:
    """Accept a full matrix iff it matches the lifted pattern exactly.

    Every entry outside the block-diagonal pattern must be exactly zero.
    """
    cand = np.asarray(candidate, dtype=float)
    rows, cols = cand.shape
    if rows % horizon != 0 or cols % (horizon + 1) != 0:
        raise ModelError(f"matrix shape {cand.shape} not divisible by horizon {horizon}")
    p = rows // horizon
    m = cols // (horizon + 1)
    mask = np.ones_like(cand, dtype=bool)
    blocks = []
    for h in range(horizon):
        mask[h * p:(h + 1) * p, h * m:(h + 1) * m] = False
        blocks.append(cand[h * p:(h + 1) * p, h * m:(h + 1) * m])
    offenders = np.argwhere((cand != 0.0) & mask)
    if offenders.size:
        i, j = offenders[0]
        raise ModelError(f"entry ({i}, {j}) = {cand[i, j]:g} lies outside the gain sparsity pattern")
    return StructuredGain(side=side, blocks=tuple(blocks))


@dataclass(frozen=True)
class CompactOperators:
    """Lifted block operators of a game; full matrices built on demand.

    Storage stays per-stage (O(N m^2)); the dense lifted matrices are only
    materialized for oracles and tests.
    """

    game: LqGame
    d_K: int = field(init=False)
    d_L: int = field(init=False)

    def __post_init__(self):
        g = self.game
        object.__setattr__(self, "d_K", g.d * g.m * g.horizon)
        object.__setattr__(self, "d_L", g.n * g.m * g.horizon)

    @property
    def horizon(self) -> int:
        return self.game.horizon

    @property
    def state_dim(self) -> int:
        return self.game.m * (self.game.horizon + 1)

    def full_A(self) -> np.ndarray:
        g = self.game
        m, N = g.m, g.horizon
        full = np.zeros((m * (N + 1), m * (N + 1)))
        for h in range(N):
            full[(h + 1) * m:(h + 2) * m, h * m:(h + 1) * m] = g.A[h]
        return full

    def _full_input(self, mats: tuple[np.ndarray, ...]) -> np.ndarray:
        g = self.game
        m, N = g.m, g.horizon
        p = mats[0].shape[1]
        full = np.zeros((m * (N + 1), p * N))
        for h in range(N):
            full[(h + 1) * m:(h + 2) * m, h * p:(h + 1) * p] = mats[h]
        return full

    def full_B(self) -> np.ndarray:
        return self._full_input(self.game.B)

    def full_D(self) -> np.ndarray:
        return self._full_input(self.game.D)

    def full_Q(self) -> np.ndarray:
        return _block_diag(self.game.Q)

    def full_Ru(self) -> np.ndarray:
        return _block_diag(self.game.Ru)

    def full_Rw(self) -> np.ndarray:
        return _block_diag(self.game.Rw)

    def full_Sigma0(self) -> np.ndarray:
        return _block_diag(self.game.noise.covariance_blocks)

    def closed_loop_blocks(self, K: StructuredGain, L: StructuredGain) -> list[np.ndarray]:
        """Stage blocks of A - B K - D L."""
        g = self.game
        return [g.A[h] - g.B[h] @ K.blocks[h] - g.D[h] @ L.blocks[h] for h in range(g.horizon)]

    def full_closed_loop(self, K: StructuredGain, L: StructuredGain) -> np.ndarray:
        g = self.game
        m, N = g.m, g.horizon
        full = np.zeros((m * (N + 1), m * (N + 1)))
        for h, blk in enumerate(self.closed_loop_blocks(K, L)):
            full[(h + 1) * m:(h + 2) * m, h * m:(h + 1) * m] = blk
        return full

    def norm_D(self) -> float:
        """Spectral norm of the lifted disturbance operator."""
        return max(float(np.linalg.norm(Dh, 2)) for Dh in self.game.D)


def _block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    sizes_r = [b.shape[0] for b in blocks]
    sizes_c = [b.shape[1] for b in blocks]
    out = np.zeros((sum(sizes_r), sum(sizes_c)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def build_compact(game: LqGame) -> CompactOperators:
    return CompactOperators(game=game)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def game_to_dict(game: LqGame) -> dict:
    noise: dict = {
        "kind": game.noise.kind,
        "covariance_blocks": [b.tolist() for b in game.noise.covariance_blocks],
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


def game_from_dict(doc: dict) -> LqGame:
    try:
        N = int(doc["horizon"])
        stages = doc["stages"]
        if len(stages) != N:
            raise ModelError(f"document declares horizon {N} but has {len(stages)} stages")
        noise_doc = doc["noise"]
        noise = NoiseModel(
            kind=noise_doc["kind"],
            covariance_blocks=tuple(np.array(b, dtype=float) for b in noise_doc["covariance_blocks"]),
            bound=float(noise_doc["bound"]),
            fixed_initial_state=(np.array(noise_doc["fixed_initial_state"], dtype=float)
                                 if "fixed_initial_state" in noise_doc else None),
        )
        return LqGame(
            A=tuple(np.array(s["A"], dtype=float) for s in stages),
            B=tuple(np.array(s["B"], dtype=float) for s in stages),
            D=tuple(np.array(s["D"], dtype=float) for s in stages),
            Q=tuple(np.array(s["Q"], dtype=float) for s in stages) + (np.array(doc["terminal_Q"], dtype=float),),
            Ru=tuple(np.array(s["Ru"], dtype=float) for s in stages),
            Rw=tuple(np.array(s["Rw"], dtype=float) for s in stages),
            noise=noise,
        )
    except KeyError as exc:
        raise ModelError(f"game document missing key {exc}") from exc


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
    return lift_gain([K] * 5, side="K")


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
