"""Brute-force max-margin ground truth for tiny linear instances.

Exhaustively searches the unit sphere of the algorithm norm (d <= 3) for
the direction maximizing the worst signed output margin. Grids use
power-of-two segment counts so halving the resolution yields a strict
superset of candidates, which makes refinement monotone. Dependency-free
by design: this is the independent check against which the optimizers'
end-of-run directions are certified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import kkt_residuals
from .errors import ConfigError
from .losses import LossSpec, evaluate
from .models import ModelSpec
from .norms import L1, L2, LINF, MODULAR_MAX, SPECTRAL, NormSpec
from .params import ParamVector


@dataclass(frozen=True)
class OracleResult:
    gamma_star: float
    theta_star: ParamVector
    resolution: float


def _segments(span: float, resolution: float) -> int:
    """Power-of-two segment count covering ``span`` at step <= resolution."""
    needed = max(1, math.ceil(span / resolution))
    return 1 << (needed - 1).bit_length()


def _vector_norm_kind(spec: NormSpec) -> str:
    """Reduce a NormSpec to its flat-vector meaning for a linear model.

    A single-block spectral norm of a vector is its l2 norm; a modular
    composite over one block is that block's norm.
    """
    kind = spec.kind
    if kind == MODULAR_MAX:
        if len(spec.block_norms) != 1:
            raise ConfigError("oracle supports modular norms with a single block only")
        kind = spec.block_norms[0].kind
    if kind == SPECTRAL:
        kind = L2
    return kind


def _l2_candidates(d: int, resolution: float) -> np.ndarray:
    if d == 1:
        return np.array([[-1.0], [1.0]])
    if d == 2:
        n = _segments(2.0 * math.pi, resolution)
        ang = np.arange(n) * (2.0 * math.pi / n)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    n_phi = _segments(math.pi, resolution)
    n_psi = _segments(2.0 * math.pi, resolution)
    phi = np.linspace(0.0, math.pi, n_phi + 1)
    psi = np.arange(n_psi) * (2.0 * math.pi / n_psi)
    pp, ss = np.meshgrid(phi, psi, indexing="ij")
    return np.stack([np.sin(pp) * np.cos(ss),
                     np.sin(pp) * np.sin(ss),
                     np.cos(pp)], axis=-1).reshape(-1, 3)


def _sign_patterns(d: int) -> np.ndarray:
    out = []
    for bits in range(2**d):
        out.append([1.0 if bits & (1 << i) else -1.0 for i in range(d)])
    return np.array(out)


def _l1_candidates(d: int, resolution: float) -> np.ndarray:
    """Points on the l1 unit sphere, one face (sign pattern) at a time."""
    if d == 1:
        return np.array([[-1.0], [1.0]])
    n = _segments(1.0, resolution)
    t = np.linspace(0.0, 1.0, n + 1)
    if d == 2:
        base = np.stack([t, 1.0 - t], axis=1)
    else:
        t1, t2 = np.meshgrid(t, t, indexing="ij")
        keep = t1 + t2 <= 1.0 + 1e-15
        base = np.stack([t1[keep], t2[keep], 1.0 - t1[keep] - t2[keep]], axis=1)
    faces = [base * signs for signs in _sign_patterns(d)]
    return np.concatenate(faces, axis=0)


def _linf_candidates(d: int, resolution: float) -> np.ndarray:
    """Points on the l-infinity unit sphere: each face fixes one coordinate."""
    if d == 1:
        return np.array([[-1.0], [1.0]])
    n = _segments(2.0, resolution)
    t = np.linspace(-1.0, 1.0, n + 1)
    out = []
    for axis in range(d):
        for sign in (1.0, -1.0):
            if d == 2:
                face = np.empty((t.size, 2))
                face[:, axis] = sign
                face[:, 1 - axis] = t
            else:
                a, b = np.meshgrid(t, t, indexing="ij")
                face = np.empty((a.size, 3))
                others = [i for i in range(3) if i != axis]
                face[:, axis] = sign
                face[:, others[0]] = a.ravel()
                face[:, others[1]] = b.ravel()
            out.append(face)
    return np.concatenate(out, axis=0)


def grid_max_margin(algo_norm: NormSpec, data, resolution: float = 1e-3) -> OracleResult:
    """Best direction on the unit-norm sphere for a linear classifier.

    Reports gamma_star <= 0 when the instance is not linearly separable.
    Ties resolve to the lexicographically smallest direction.
    """
    X = np.asarray(data.X, dtype=np.float64)
    y = np.asarray(data.y, dtype=np.float64)
    d = X.shape[1]
    if d > 3:
        raise ConfigError(f"grid oracle supports d <= 3, got d = {d}")
    kind = _vector_norm_kind(algo_norm)
    candidates = {L2: _l2_candidates, L1: _l1_candidates, LINF: _linf_candidates}[kind](
        d, resolution)

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
                        theta_star=ParamVector((best_theta.copy(),)),
                        resolution=resolution)


def certify_kkt(model: ModelSpec, theta: ParamVector, data, algo_norm: NormSpec,
                tol_eps: float, tol_delta: float) -> bool:
    """True iff the rescaled point meets both residual tolerances.

    Multipliers are formed with exponential-loss weights; propagates the
    not-separated error when q_min <= 0.
    """
    report = kkt_residuals(evaluate(LossSpec.exponential(), model, theta, data),
                           algo_norm)
    return report.eps <= tol_eps and report.delta <= tol_delta
