"""Per-step trajectory diagnostics: margins, alignment, KKT residuals.

All measurements treat the trainable blocks as the optimization variable;
frozen blocks never enter a norm or an inner product. Multipliers and
gradient magnitudes are carried in log-domain so the diagnostics stay
exact long after individual loss terms underflow. ``margin_report`` takes a
row's shared measures once (q_min, theta's norms, ||g_hat||* and the
alignment) and ``kkt_residuals`` reads them from that report.

Caveat: the theory's minimum-dual-norm subgradient is approximated by the
fixed selections (relu'(0) = 0 for the network, deterministic tie-breaking
for the norm). Off non-differentiability points the two coincide, and
generic trajectories only touch such points on a measure-zero set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotSeparatedError, ZeroVectorError
from .losses import Evaluation, phi_inverse, separation_threshold
from .models import weighted_subgradient_sum
from .norms import NormSpec, _l2, _subgradient, dual_norm_value, norm_value

# the parameter norms every logged row reports, besides the algorithm's own
_REPORTED_NORMS = {spec.label(): spec for spec in (
    NormSpec.l1(), NormSpec.l2(), NormSpec.linf(), NormSpec.spectral())}


@dataclass(frozen=True)
class MarginReport:
    """Margins and alignment at one parameter point.

    ``gamma_1``, ``gamma_2``, ``gamma_inf`` divide the worst output margin
    by the l-infinity, l2, and l1 parameter norms raised to the
    homogeneity degree; ``gamma_sigma`` uses the per-block spectral norm;
    ``gamma_algo`` and ``soft_margin`` use the algorithm's own norm
    ``algo_norm``, under which ``grad_dual`` is ||g_hat||*, the dual norm
    of the scaled loss subgradient.
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
    algo_norm: NormSpec
    grad_dual: float


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


def margin_report(ev: Evaluation, algo_norm: NormSpec) -> MarginReport:
    """All margin diagnostics at the evaluated point; requires theta != 0.

    The alignment is -<theta, g_hat> / (||theta|| ||g_hat||*) under
    ``algo_norm``, NaN when g_hat is zero.
    """
    theta, g_hat = ev.theta, ev.subgradient[0]
    norms = {name: norm_value(spec, theta) for name, spec in _REPORTED_NORMS.items()}
    label = algo_norm.label()
    if label not in norms:
        norms[label] = norm_value(algo_norm, theta)
    algo_theta_norm = norms[label]
    if algo_theta_norm == 0.0:
        raise ZeroVectorError("margin_report is undefined at theta = 0")
    dual = dual_norm_value(algo_norm, g_hat)
    align = (math.nan if dual == 0.0 else
             -theta.dot_flat(g_hat.trainable_flat()) / (algo_theta_norm * dual))
    q_min = float(ev.q.min())
    degree = ev.model.homogeneity_degree

    try:
        soft = phi_inverse(ev.loss, -ev.log_loss) / algo_theta_norm**degree
    except ValueError:
        soft = math.nan

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
        separated=ev.log_loss < separation_threshold(ev.loss),
        algo_norm=algo_norm,
        grad_dual=dual,
    )


def kkt_residuals(ev: Evaluation, rep: MarginReport,
                  gamma_tilde_t0: Optional[float] = None) -> KKTReport:
    """Residuals of the rescaled iterate against the max-margin conditions,
    under the algorithm norm of ``rep``, the ``margin_report`` of ``ev``.

    Multipliers follow lambda_i = (||theta|| / ||g||*) q_min^{1-2/L} w_i
    with w_i the per-example loss weight, computed entirely in log-domain.
    The stationarity vector s is compared against k, ||theta~|| times the
    fixed norm subgradient at theta~: in l2 for ``eps``, and in the
    algorithm's geometry for the Bregman gap
    0.5||s||*^2 - 0.5||k||*^2 - <theta~, s - k>. Bounds require the
    separation-time soft margin. The vectors compared are flat arrays over
    theta~'s trainable prefix. The complementarity bound divides by
    -log-loss, so it exists only where the log-loss is negative.
    """
    degree = ev.model.homogeneity_degree
    algo_norm, q_min, dual_hat = rep.algo_norm, rep.q_min, rep.grad_dual
    theta_norm = rep.param_norms[algo_norm.label()]
    if q_min <= 0.0:
        raise NotSeparatedError(f"q_min = {q_min} <= 0: not separated")

    log_scale = ev.subgradient[1]
    if dual_hat == 0.0:
        raise ZeroVectorError("kkt_residuals: loss subgradient is exactly zero")
    log_g_dual = log_scale + math.log(dual_hat)

    log_lambda = (math.log(theta_norm) - log_g_dual
                  + (1.0 - 2.0 / degree) * math.log(q_min) + ev.logw)

    theta_f = ev.theta.scaled_trainable(q_min ** (-1.0 / degree))
    theta_f_norm, n = _subgradient(algo_norm, theta_f)
    k = theta_f_norm * n

    shift = float(log_lambda.max())
    scale = math.exp(shift)
    lambdas = np.exp(log_lambda - shift)      # the multipliers over exp(shift)
    s = scale * weighted_subgradient_sum(ev.model, theta_f, ev.data.X,
                                         ev.data.y * lambdas).trainable_flat()
    diff = s - k
    eps = _l2(diff)
    delta = float(scale * lambdas.dot(ev.q / q_min - 1.0))
    ds, dk = (dual_norm_value(algo_norm, theta_f, v) for v in (s, k))
    gap = 0.5 * ds * ds - 0.5 * dk * dk - theta_f.dot_flat(diff)

    bregman_bound = delta_bound = None
    if gamma_tilde_t0 is not None and gamma_tilde_t0 > 0.0:
        gt0 = gamma_tilde_t0 ** (2.0 / degree)
        bregman_bound = (1.0 - rep.alignment) / gt0
        if ev.log_loss < 0.0:
            delta_bound = len(ev.q) / (math.e * gt0 * degree * (-ev.log_loss))

    return KKTReport(log_lambda=log_lambda, eps=eps, delta=delta,
                     bregman_gap=gap, bregman_bound=bregman_bound,
                     delta_bound=delta_bound)
