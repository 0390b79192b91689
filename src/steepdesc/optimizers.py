"""Discrete-time update rules.

The steepest-descent family (raw and normalized) under any supported norm,
Adam and Shampoo. An ``OptimizerSpec`` may name the spec a run switches to
at separation; ``run_training`` makes the switch. All steps are pure: they
return a new parameter vector (and, where stateful, a new state).
Each reads its size eta from its ``OptimizerSpec``, where it is checked.
Frozen blocks never move: each step forms the new point with one
``ParamVector.add_trainable`` of a flat displacement.

A raw steepest step builds one vector, the new point, a normalized one also
the unit direction, with or without a frozen block: the direction and its
dual norm read the gradient's trainable prefix in place, in one pass for an
l2 or l1 segment. The gradient is checked for non-finite entries once, and
the dual norm is taken only for the raw step's factor. Adam keeps its
moments as flat arrays over the trainable prefix, so its step builds only
the new point (and the rescaled gradient ``take_step`` forms from a log scale).

Special cases worth knowing:
  * Adam with beta1 = beta2 = eps = 0 is exactly the normalized sign step
    (normalized steepest descent under the l-infinity norm), with the
    0/0 -> 0 convention matching sign(0) = 0.
  * Shampoo's first step from zero accumulators equals -eta * U V^T on a
    full-rank gradient block, the normalized spectral steepest direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, NonFiniteError
from .norms import NormSpec, unit_direction_and_dual, unit_steepest_direction
from .params import ParamVector


def _exp_saturating(x: float) -> float:
    """exp that overflows to inf instead of raising; the caller's
    finiteness checks turn the overflow into a divergence diagnostic."""
    if x < 709.0:                 # exp(709) < DBL_MAX: no overflow to silence
        return float(np.exp(x))
    with np.errstate(over="ignore"):
        return float(np.exp(x))


@dataclass(frozen=True)
class SteepestMethod:
    norm: NormSpec
    normalized: bool = False


@dataclass(frozen=True)
class AdamMethod:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("Adam betas must lie in [0, 1)")
        if not 0.0 <= self.eps < math.inf:
            raise ConfigError("Adam eps must be finite and >= 0")


@dataclass(frozen=True)
class ShampooMethod:
    eps_reg: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eps_reg < math.inf:
            raise ConfigError("Shampoo eps_reg must be finite and >= 0")


Method = Union[SteepestMethod, AdamMethod, ShampooMethod]


@dataclass(frozen=True)
class OptimizerSpec:
    method: Method
    step_size: float
    switch_to: Optional["OptimizerSpec"] = None  # applied at first separation

    def __post_init__(self):
        if not 0.0 < self.step_size < math.inf:
            raise ConfigError("step_size must be finite and positive")


@dataclass
class OptimizerState:
    """Per-run accumulators, fresh per run and after a switch; ``t`` is Adam's."""

    t: int = 0
    adam_m: Optional[np.ndarray] = None   # moments of the trainable prefix
    adam_v: Optional[np.ndarray] = None
    shampoo: tuple = ()    # (left, right) accumulators per trainable block


def step_steepest(theta: ParamVector, g: ParamVector, spec: OptimizerSpec,
                  log_scale: float = 0.0) -> ParamVector:
    """One steepest step: theta + eta * delta, delta from the method norm.

    The normalized variant rescales delta to unit norm (a zero gradient
    moves nothing). ``log_scale`` lets callers pass gradients factored as
    exp(log_scale) * g without materializing the product; it only affects
    the raw variant, since the normalized direction is scale-free.
    """
    method = spec.method
    if not isinstance(method, SteepestMethod):
        raise TypeError("step_steepest requires a steepest-descent method")
    eta = spec.step_size
    if method.normalized:       # raises on non-finite g, as the raw step does
        return theta.add_trainable(eta * unit_steepest_direction(method.norm, g).flat())
    unit, dual = unit_direction_and_dual(method.norm, g)
    if dual == 0.0:
        return theta
    factor = eta * dual * _exp_saturating(log_scale)
    # an overflowed factor deliberately propagates inf/nan so the caller's
    # divergence check fires
    with np.errstate(invalid="ignore", over="ignore"):
        return theta.add_trainable(factor * unit)


def step_adam(theta: ParamVector, g: ParamVector, state: OptimizerState,
              spec: OptimizerSpec) -> tuple[ParamVector, OptimizerState]:
    """Adam with bias correction; elementwise 0/0 resolves to no movement."""
    method = spec.method
    if not isinstance(method, AdamMethod):
        raise TypeError("step_adam requires an Adam method")
    gf = g.trainable_flat()
    m_prev = state.adam_m if state.adam_m is not None else np.zeros(gf.size)
    v_prev = state.adam_v if state.adam_v is not None else np.zeros(gf.size)
    t = state.t + 1
    b1, b2, eps = method.beta1, method.beta2, method.eps
    m = b1 * m_prev + (1.0 - b1) * gf
    v = b2 * v_prev + (1.0 - b2) * gf * gf
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    denom = np.sqrt(v_hat) + eps
    upd = np.divide(m_hat, denom, out=np.zeros_like(m_hat), where=denom > 0.0)
    new_state = OptimizerState(t=t, adam_m=m, adam_v=v)
    return theta.add_trainable(-spec.step_size * upd), new_state


def _inverse_fourth_root(mat: np.ndarray) -> np.ndarray:
    """Pseudo-inverse fourth root of a symmetric PSD matrix.

    Eigenvalues at or below 1e-12 times the largest are treated as zero
    (pseudo-inverted to zero).
    """
    sym = 0.5 * (mat + mat.T)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NonFiniteError(f"shampoo: eigendecomposition failed: {exc}") from exc
    vmax = float(vals.max(initial=0.0))
    inv = np.where(vals > 1e-12 * vmax, vals, np.inf) ** -0.25 if vmax > 0.0 \
        else np.zeros_like(vals)
    inv = np.where(np.isfinite(inv), inv, 0.0)
    return (vecs * inv) @ vecs.T


def step_shampoo(theta: ParamVector, g: ParamVector, state: OptimizerState,
                 spec: OptimizerSpec) -> tuple[ParamVector, OptimizerState]:
    """Per-block preconditioned step W -= eta * L^{-1/4} G R^{-1/4}.

    Accumulators grow by G G^T and G^T G each step (plus eps_reg * I on
    first use), one (left, right) pair per trainable block; vector blocks
    are treated as one-column matrices. Frozen blocks are skipped entirely.
    """
    method = spec.method
    if not isinstance(method, ShampooMethod):
        raise TypeError("step_shampoo requires a Shampoo method")
    accumulators, deltas = [], []
    for i, gb in enumerate(g.trainable_blocks()):
        gm = gb.reshape(-1, 1) if gb.ndim == 1 else gb
        left, right = state.shampoo[i] if state.shampoo else (
            method.eps_reg * np.eye(gm.shape[0]), method.eps_reg * np.eye(gm.shape[1]))
        left, right = left + gm @ gm.T, right + gm.T @ gm
        accumulators.append((left, right))
        upd = _inverse_fourth_root(left) @ gm @ _inverse_fourth_root(right)
        deltas.append(-spec.step_size * upd.ravel())
    new_state = OptimizerState(shampoo=tuple(accumulators))
    return theta.add_trainable(np.concatenate(deltas)), new_state


def take_step(theta: ParamVector, g: ParamVector, state: OptimizerState,
              spec: OptimizerSpec, log_scale: float = 0.0
              ) -> tuple[ParamVector, OptimizerState]:
    """Dispatch one update under ``spec`` at its configured step size; a
    steepest step has no state and returns ``state`` as given."""
    if isinstance(spec.method, SteepestMethod):
        return step_steepest(theta, g, spec, log_scale), state
    scaled = g.scaled(_exp_saturating(log_scale)) if log_scale != 0.0 else g
    if isinstance(spec.method, AdamMethod):
        return step_adam(theta, scaled, state, spec)
    return step_shampoo(theta, scaled, state, spec)
