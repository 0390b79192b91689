"""Exponentially-tailed classification losses, evaluated in log-domain.

The total loss is sum_i exp(-Phi(q_i)) with q_i = y_i f(x_i; theta) the
output margins. Trajectories of interest push individual terms far below
double-precision underflow, so everything trajectory-level (total loss,
per-example weights, multipliers) is carried as logarithms:

  * ``exponential``  Phi(u) = u, so l(u) = exp(-u)
  * ``logistic``     Phi(u) = -log(log(1 + exp(-u))), so l(u) = log(1+exp(-u))

``log_loss`` is exact in log-domain even when every term underflows;
``evaluate`` computes margins, log-weights, log-loss and the subgradient
exp(log_scale) * g_hat (g_hat well-conditioned) once per point, from the
hidden layer the forward pass left.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import ModelSpec, forward_batch, hidden_subgradient_sum
from .params import ParamVector

EXPONENTIAL = "exponential"
LOGISTIC = "logistic"

# Above this margin the logistic Phi and its inverse switch to the
# asymptotic expansion; below, the direct formula is exact and safe.
_LOGISTIC_ASYMPTOTIC = 30.0


@dataclass(frozen=True)
class LossSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in (EXPONENTIAL, LOGISTIC):
            raise ConfigError(f"unknown loss kind {self.kind!r}")

    @classmethod
    def exponential(cls) -> "LossSpec":
        return cls(EXPONENTIAL)

    @classmethod
    def logistic(cls) -> "LossSpec":
        return cls(LOGISTIC)


def output_margins(model: ModelSpec, theta: ParamVector, data,
                   hidden: np.ndarray | None = None) -> np.ndarray:
    """q_i = y_i f(x_i; theta) over the dataset (its ``X`` and ``y``)."""
    return data.y * forward_batch(model, theta, data.X, hidden)


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow at either end
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _log_l_logistic(q: np.ndarray) -> np.ndarray:
    """log log(1 + e^{-q}), exact even when e^{-q} underflows."""
    q = np.asarray(q, dtype=np.float64)
    out = np.empty_like(q)
    small = q <= _LOGISTIC_ASYMPTOTIC
    if small.any():
        out[small] = np.log(_softplus(-q[small]))
    big = ~small
    if big.any():
        z = np.exp(-q[big])
        # log(log1p(z)) = -q + log(1 - z/2 + z^2/3 - ...)
        out[big] = -q[big] + np.log1p(-z / 2.0 + z * z / 3.0)
    return out


def log_terms(loss: LossSpec, q: np.ndarray) -> np.ndarray:
    """Per-example log losses: log l(q_i) = -Phi(q_i)."""
    q = np.asarray(q, dtype=np.float64)
    if loss.kind == EXPONENTIAL:
        return -q
    return _log_l_logistic(q)


def log_loss(loss: LossSpec, q: np.ndarray) -> float:
    """log of the total loss via log-sum-exp with max subtraction."""
    t = log_terms(loss, q)
    m = float(t.max())
    if not math.isfinite(m):
        return m
    return m + float(np.log(np.exp(t - m).sum()))


def log_weights(loss: LossSpec, q: np.ndarray) -> np.ndarray:
    """log of the per-example gradient weights, -Phi(q_i) + log Phi'(q_i).

    For the exponential loss this is -q_i; for the logistic loss the
    product collapses to log sigmoid(-q_i) = -softplus(q_i).
    """
    q = np.asarray(q, dtype=np.float64)
    if loss.kind == EXPONENTIAL:
        return -q
    return -_softplus(q)


@dataclass(eq=False, slots=True)
class Evaluation:
    """Margins ``q``, log-weights ``logw``, ``log_loss`` and the loss
    subgradient at one point.

    ``subgradient`` is (g_hat, log_scale) with the loss subgradient
    exp(log_scale) * g_hat, g_hat = -sum_i exp(logw_i - log_scale) y_i h_i and
    log_scale the largest log-weight, so g_hat stays representable however
    small the loss.
    """

    loss: LossSpec
    model: ModelSpec
    theta: ParamVector
    data: object
    q: np.ndarray
    logw: np.ndarray
    log_loss: float
    subgradient: tuple[ParamVector, float]


def evaluate(loss: LossSpec, model: ModelSpec, theta: ParamVector, data,
             hidden: np.ndarray | None = None) -> Evaluation:
    """One forward pass over ``data`` and everything the loss derives from it.

    ``hidden`` is an (m, width) buffer for the rows of ``data.X``, reused
    across calls; a new one is allocated when it is not given.
    """
    if hidden is None:
        hidden = np.empty((len(data.X), model.width))
    q = output_margins(model, theta, data, hidden)
    logw = log_weights(loss, q)
    scale = float(logw.max())
    weights = np.exp(logw - scale)
    g_hat = hidden_subgradient_sum(model, theta, data.X, -data.y * weights, hidden)
    # the exponential loss's log_terms(q) is logw, so log_loss sums these weights
    value = (scale + float(np.log(weights.sum()))
             if loss.kind == EXPONENTIAL and math.isfinite(scale) else log_loss(loss, q))
    return Evaluation(loss, model, theta, data, q, logw, value, (g_hat, scale))


def loss_subgradient(loss: LossSpec, model: ModelSpec, theta: ParamVector,
                     data) -> tuple[ParamVector, np.ndarray]:
    """The literal loss subgradient -sum_i exp(logw_i) y_i h_i under the fixed
    network selection, plus the per-example log-weights. At extreme margins
    it can underflow; ``Evaluation.subgradient`` keeps the direction."""
    ev = evaluate(loss, model, theta, data)
    return ev.subgradient[0].scaled(float(np.exp(ev.subgradient[1]))), ev.logw


def phi_inverse(loss: LossSpec, v: float) -> float:
    """Phi^{-1}(v); for the logistic loss, -log(exp(exp(-v)) - 1) with an
    asymptotic branch above v = 30 where the direct form cancels."""
    v = float(v)
    if math.isnan(v):
        raise ValueError("phi_inverse: v is NaN")
    if loss.kind == EXPONENTIAL:
        return v
    if v > _LOGISTIC_ASYMPTOTIC:
        z = np.exp(-v)
        return v - float(np.log1p(z / 2.0 + z * z / 6.0 + z ** 3 / 24.0))
    if v < -709.0:
        raise ValueError(f"phi_inverse: v = {v} below the representable range")
    w = np.exp(-v)
    if w > 700.0:
        return -float(w)
    return -float(np.log(np.expm1(w)))


def separation_threshold(loss: LossSpec) -> float:
    """log of the zero-margin loss level, log l(0); loss below it implies
    every training point is classified correctly."""
    if loss.kind == EXPONENTIAL:
        return 0.0
    return float(np.log(np.log(2.0)))
