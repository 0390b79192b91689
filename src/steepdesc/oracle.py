"""Brute-force max-margin ground truth for tiny linear instances.

Exhaustively searches the unit sphere of the algorithm norm (d <= 3) for
the direction maximizing the worst signed output margin: on an angle grid
for l2, face by face for l1 and l-infinity. Grids use power-of-two segment
counts so halving the resolution yields a strict superset of candidates,
which makes refinement monotone; each grid is counted against
``MAX_GRID_POINTS`` before any axis of it is built. Dependency-free by
design: the independent check on the optimizers' end-of-run directions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import sub

import numpy as np

from .errors import ConfigError
from .norms import L1, L2, MODULAR_MAX, SPECTRAL, NormSpec
from .params import ParamVector


@dataclass(frozen=True)
class OracleResult:
    gamma_star: float
    theta_star: ParamVector
    resolution: float


# Most candidates one grid may hold: 1 << 26, 1.5 GiB of float64 triples.
# Tests build at most 131,584 (l2, d = 3, resolution 2e-2); the default
# resolution 1e-3 in d = 3 needs at most 33,562,624 (l2).
MAX_GRID_POINTS = 1 << 26


def _check_size(points: float, resolution: float) -> None:
    if points > MAX_GRID_POINTS:        # inf too, for a subnormal resolution
        raise ConfigError(f"resolution {resolution:g} needs more than "
                          f"{MAX_GRID_POINTS} grid points")


def _segments(span: float, resolution: float) -> int:
    """Power-of-two segment count covering ``span`` at step <= resolution."""
    steps = span / resolution
    _check_size(steps, resolution)
    needed = max(1, math.ceil(steps))
    return 1 << (needed - 1).bit_length()


def _vector_norm_kind(spec: NormSpec) -> str:
    """A NormSpec's flat-vector meaning for a linear model: a single-block
    spectral norm is l2, a one-block modular norm is that block's norm."""
    kind = spec.kind
    if kind == MODULAR_MAX:
        if len(spec.block_norms) != 1:
            raise ConfigError("oracle supports modular norms with a single block only")
        kind = spec.block_norms[0].kind
    if kind == SPECTRAL:
        kind = L2
    return kind


def _faces(kind: str, d: int, resolution: float) -> np.ndarray:
    """The l1 or l-infinity unit sphere as faces, each a grid over d - 1
    coordinates. An l1 face is the simplex t >= 0, sum(t) <= 1, completed
    by 1 - t_1 - t_2 ..., under one sign pattern (pattern b has coordinate
    i positive iff bit i of b is set); an l-infinity face grids [-1, 1] and
    holds one coordinate, in order, at +1 and then at -1."""
    lo = 0.0 if kind == L1 else -1.0
    n = _segments(1.0 - lo, resolution)
    if kind == L1:
        _check_size(2**d * math.comb(n + d - 1, d - 1), resolution)
    else:
        _check_size(2 * d * (n + 1) ** (d - 1), resolution)
    axes = np.meshgrid(*[np.linspace(lo, 1.0, n + 1)] * (d - 1), indexing="ij")
    grid = np.stack([a.ravel() for a in axes], axis=1)
    if kind == L1:
        grid = grid[grid.sum(axis=1) <= 1.0 + 1e-15]
        simplex = np.column_stack([grid, reduce(sub, grid.T, 1.0)])
        return np.concatenate([simplex * np.array(signs[::-1])
                               for signs in product((-1.0, 1.0), repeat=d)])
    return np.concatenate([np.insert(grid, axis, sign, axis=1)
                           for axis in range(d) for sign in (1.0, -1.0)])


def _candidates(kind: str, d: int, resolution: float) -> np.ndarray:
    """Candidate directions on the unit sphere of ``kind`` in ``d`` dims."""
    if d == 1:
        return np.array([[-1.0], [1.0]])
    if kind != L2:
        return _faces(kind, d, resolution)
    # a longitude ring (d = 2), or one at each polar angle (d = 3)
    n_psi = _segments(2.0 * math.pi, resolution)
    n_phi = _segments(math.pi, resolution) if d == 3 else 0
    _check_size((n_phi + 1) * n_psi, resolution)
    psi = np.arange(n_psi) * (2.0 * math.pi / n_psi)
    if d == 2:
        return np.stack([np.cos(psi), np.sin(psi)], axis=1)
    pp, ss = np.meshgrid(np.linspace(0.0, math.pi, n_phi + 1), psi, indexing="ij")
    return np.stack([np.sin(pp) * np.cos(ss),
                     np.sin(pp) * np.sin(ss),
                     np.cos(pp)], axis=-1).reshape(-1, 3)


def grid_max_margin(algo_norm: NormSpec, data, resolution: float = 1e-3) -> OracleResult:
    """Best direction on the unit-norm sphere for a linear classifier.

    Reports gamma_star <= 0 when the instance is not linearly separable.
    Ties resolve to the lexicographically smallest direction.
    """
    if not 0.0 < resolution < math.inf:
        raise ConfigError(f"resolution must be finite and positive, got {resolution}")
    X = np.asarray(data.X, dtype=np.float64)
    y = np.asarray(data.y, dtype=np.float64)
    d = X.shape[1]
    if not 1 <= d <= 3:
        raise ConfigError(f"grid oracle needs 1 <= d <= 3, got d = {d}")
    candidates = _candidates(_vector_norm_kind(algo_norm), d, resolution)

    signed = X * y[:, None]            # margin of theta is min(signed @ theta)
    best_gamma = -math.inf
    best_theta = None
    chunk = 262144
    for start in range(0, candidates.shape[0], chunk):
        block = candidates[start:start + chunk]
        margins = (block @ signed.T).min(axis=1)
        top = float(margins.max())
        if top < best_gamma:
            continue
        ties = block[margins >= top] if top > best_gamma else \
            np.concatenate([best_theta[None, :], block[margins >= top]], axis=0)
        order = np.lexsort(ties.T[::-1])
        best_theta = ties[order[0]]
        best_gamma = max(best_gamma, top)
    return OracleResult(gamma_star=best_gamma,
                        theta_star=ParamVector((best_theta,)),
                        resolution=resolution)
