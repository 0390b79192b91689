"""Per-step trajectory diagnostics: margins, alignment, KKT residuals.

All measurements treat the trainable blocks as the optimization variable;
frozen blocks never enter a norm or an inner product. Multipliers and
gradient magnitudes are carried in log-domain so the diagnostics stay
exact long after individual loss terms underflow.

Caveat recorded once here rather than at every call site: the theory's
minimum-dual-norm subgradient is approximated by the fixed selections
(relu'(0) = 0 for the network, deterministic tie-breaking for the norm).
Off non-differentiability points the two coincide, and generic
trajectories only touch such points on a measure-zero set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotSeparatedError, ZeroVectorError
from .losses import (Evaluation, LossSpec, output_margins, phi_inverse,
                     separation_threshold)
from .models import ModelSpec, weighted_subgradient_sum
from .norms import NormSpec, dual_norm_value, norm_subgradient, norm_value
from .params import ParamVector


@dataclass(frozen=True)
class MarginReport:
    """Margins and alignment at one parameter point.

    ``gamma_1``, ``gamma_2``, ``gamma_inf`` divide the worst output margin
    by the l-infinity, l2, and l1 parameter norms raised to the
    homogeneity degree; ``gamma_sigma`` uses the per-block spectral norm;
    ``gamma_algo`` and ``soft_margin`` use the algorithm's own norm.
    """

    q_min: float
    gamma_1: float
    gamma_2: float
    gamma_inf: float
    gamma_sigma: float
    gamma_algo: float
    soft_margin: float
    param_norms: dict
    log_loss: float
    alignment: float
    separated: bool


@dataclass(frozen=True)
class KKTReport:
    """Approximate-KKT residuals of the rescaled (feasible) point.

    ``eps`` is the l2 stationarity residual, ``delta`` the complementarity
    residual (each summand nonnegative by construction), ``bregman_gap``
    the stationarity gap in the algorithm's geometry. The two bounds are
    present when the soft margin at separation time was supplied.
    """

    log_lambda: np.ndarray
    eps: float
    delta: float
    bregman_gap: float
    bregman_bound: Optional[float]
    delta_bound: Optional[float]

    @property
    def lambdas(self) -> np.ndarray:
        """Multipliers exponentiated out of log-domain (may underflow to 0)."""
        return np.exp(self.log_lambda)


def detect_separation(log_loss_value: float, loss: LossSpec) -> bool:
    """True once the loss has dropped strictly below the zero-margin level."""
    return log_loss_value < separation_threshold(loss)


def _alignment(ev: Evaluation, theta_tr: ParamVector, algo_norm: NormSpec,
               theta_norm: float) -> float:
    dual = ev.subgradient_dual(algo_norm)
    if dual == 0.0 or theta_norm == 0.0:
        return math.nan
    return -theta_tr.dot(ev.g_hat_trainable) / (theta_norm * dual)


def margin_report(ev: Evaluation, algo_norm: NormSpec) -> MarginReport:
    """All margin diagnostics at the evaluated point; requires theta != 0."""
    theta_tr = ev.theta.trainable_view()
    algo_theta_norm = norm_value(algo_norm, theta_tr)
    if algo_theta_norm == 0.0:
        raise ZeroVectorError("margin_report is undefined at theta = 0")
    degree = ev.model.homogeneity_degree
    q_min = float(ev.q.min())

    norms = {
        "l1": norm_value(NormSpec.l1(), theta_tr),
        "l2": norm_value(NormSpec.l2(), theta_tr),
        "linf": norm_value(NormSpec.linf(), theta_tr),
        "spectral": norm_value(NormSpec.spectral(), theta_tr),
        algo_norm.label(): algo_theta_norm,
    }

    try:
        soft = phi_inverse(ev.loss, -ev.log_loss) / algo_theta_norm**degree
    except ValueError:
        soft = math.nan

    align = _alignment(ev, theta_tr, algo_norm, algo_theta_norm)

    return MarginReport(
        q_min=q_min,
        gamma_1=q_min / norms["linf"]**degree,
        gamma_2=q_min / norms["l2"]**degree,
        gamma_inf=q_min / norms["l1"]**degree,
        gamma_sigma=q_min / norms["spectral"]**degree,
        gamma_algo=q_min / algo_theta_norm**degree,
        soft_margin=soft,
        param_norms=norms,
        log_loss=ev.log_loss,
        alignment=align,
        separated=detect_separation(ev.log_loss, ev.loss),
    )


def scale_to_feasible(model: ModelSpec, theta: ParamVector, data) -> ParamVector:
    """theta / q_min^{1/L}: the rescaling whose worst output margin is 1.

    Only valid after separation (q_min > 0); idempotent once applied.
    """
    q_min = float(output_margins(model, theta, data).min())
    if q_min <= 0.0:
        raise NotSeparatedError(f"q_min = {q_min} <= 0: not separated")
    return theta.scaled_trainable(q_min ** (-1.0 / model.homogeneity_degree))


def bregman_divergence(algo_norm: NormSpec, y: ParamVector, z: ParamVector,
                       m_vec: ParamVector) -> float:
    """Generalized divergence 0.5||y||*^2 - 0.5||z||*^2 - <m, y - z>.

    ``m_vec`` must be a subgradient of 0.5||.||*^2 at ``z`` (the caller's
    responsibility). The value is a stationarity gap, not a metric: it can
    be negative when the squared dual norm is not strongly convex.
    """
    y.check_same_structure(z, "bregman_divergence")
    y.check_same_structure(m_vec, "bregman_divergence")
    dy = dual_norm_value(algo_norm, y)
    dz = dual_norm_value(algo_norm, z)
    return 0.5 * dy * dy - 0.5 * dz * dz - m_vec.dot(y - z)


def kkt_residuals(ev: Evaluation, algo_norm: NormSpec,
                  gamma_tilde_t0: Optional[float] = None) -> KKTReport:
    """Residuals of the rescaled iterate against the max-margin conditions.

    Multipliers follow lambda_i = (||theta|| / ||g||*) q_min^{1-2/L} w_i
    with w_i the per-example loss weight, computed entirely in log-domain.
    The stationarity vector is compared against ||theta~|| times the fixed
    norm subgradient at theta~, in l2 for ``eps`` and in the algorithm's
    geometry for the Bregman gap. Bounds require the separation-time soft
    margin.
    """
    model, theta, data, q = ev.model, ev.theta, ev.data, ev.q
    degree = model.homogeneity_degree
    theta_tr = theta.trainable_view()
    theta_norm = norm_value(algo_norm, theta_tr)
    if theta_norm == 0.0:
        raise ZeroVectorError("kkt_residuals is undefined at theta = 0")

    q_min = float(q.min())
    if q_min <= 0.0:
        raise NotSeparatedError(f"q_min = {q_min} <= 0: not separated")

    log_scale = ev.subgradient[1]
    dual_hat = ev.subgradient_dual(algo_norm)
    if dual_hat == 0.0:
        raise ZeroVectorError("kkt_residuals: loss subgradient is exactly zero")
    log_g_dual = log_scale + math.log(dual_hat)

    log_lambda = (math.log(theta_norm) - log_g_dual
                  + (1.0 - 2.0 / degree) * math.log(q_min) + ev.logw)

    theta_f = theta.scaled_trainable(q_min ** (-1.0 / degree))
    theta_f_tr = theta_f.trainable_view()
    theta_f_norm = norm_value(algo_norm, theta_f_tr)

    shift = float(np.max(log_lambda))
    y = np.asarray(data.y, dtype=np.float64)
    coeffs = y * np.exp(log_lambda - shift)
    s = weighted_subgradient_sum(model, theta_f, data.X, coeffs).scaled(math.exp(shift))
    s_tr = s.trainable_view()

    k = norm_subgradient(algo_norm, theta_f_tr).scaled(theta_f_norm)
    eps = float(np.linalg.norm((s_tr - k).flat()))

    slack = q / q_min - 1.0
    delta = float(math.exp(shift) * np.dot(np.exp(log_lambda - shift), slack))

    gap = bregman_divergence(algo_norm, s_tr, k, theta_f_tr)

    bregman_bound = delta_bound = None
    if gamma_tilde_t0 is not None and gamma_tilde_t0 > 0.0:
        align = _alignment(ev, theta_tr, algo_norm, theta_norm)
        gt0 = gamma_tilde_t0 ** (2.0 / degree)
        bregman_bound = (1.0 - align) / gt0
        delta_bound = len(y) / (math.e * gt0 * degree * (-ev.log_loss))

    return KKTReport(log_lambda=log_lambda, eps=eps, delta=delta,
                     bregman_gap=gap, bregman_bound=bregman_bound,
                     delta_bound=delta_bound)
