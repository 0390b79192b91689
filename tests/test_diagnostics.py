import math

import numpy as np
import pytest

from steepdesc import diagnostics, norms
from steepdesc.diagnostics import kkt_residuals, margin_report
from steepdesc.errors import NotSeparatedError, ZeroVectorError
from steepdesc.losses import (LossSpec, evaluate, output_margins,
                              separation_threshold)
from steepdesc.models import ModelSpec, forward_batch, weighted_subgradient_sum
from steepdesc.norms import (NormSpec, dual_norm_value, norm_subgradient,
                             norm_value)
from steepdesc.params import ParamVector


class Points:
    def __init__(self, X, y):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)


EXP = LossSpec.exponential()
LOG = LossSpec.logistic()


def linear_instance(theta_vals, X, y):
    model = ModelSpec.linear(len(theta_vals))
    theta = ParamVector.of(np.asarray(theta_vals, dtype=float))
    return model, theta, Points(X, y)


def l2_kkt(model, theta, data, gamma_tilde_t0=None):
    """The KKT report at theta under the l2 norm, read from its margin report."""
    ev = evaluate(EXP, model, theta, data)
    return kkt_residuals(ev, margin_report(ev, NormSpec.l2()), gamma_tilde_t0)


class TestMarginReport:
    def test_linear_l2_margin(self):
        model, theta, data = linear_instance([3.0, 4.0], [[1.0, 0.0]], [1.0])
        rep = margin_report(evaluate(EXP, model, theta, data), NormSpec.l2())
        assert rep.q_min == pytest.approx(3.0)
        assert rep.gamma_2 == pytest.approx(0.6)
        assert rep.gamma_algo == pytest.approx(0.6)

    def test_single_example_soft_equals_hard(self):
        # m = 1 makes the soft/hard sandwich tight
        model, theta, data = linear_instance([1.0, 0.0], [[5.0, 0.0]], [1.0])
        rep = margin_report(evaluate(EXP, model, theta, data), NormSpec.l2())
        assert rep.soft_margin == pytest.approx(rep.gamma_algo, rel=1e-12)
        assert rep.soft_margin == pytest.approx(5.0)

    def test_two_equal_margins_gap_is_log_m(self):
        model, theta, data = linear_instance(
            [1.0, 0.0], [[5.0, 0.0], [5.0, 1.0]], [1.0, 1.0])
        rep = margin_report(evaluate(EXP, model, theta, data), NormSpec.l2())
        assert rep.gamma_algo == pytest.approx(5.0)
        assert rep.soft_margin == pytest.approx(5.0 - math.log(2.0), rel=1e-12)

    def test_sandwich_random_instances(self):
        rng = np.random.default_rng(0)
        model = ModelSpec.two_layer_relu(3, 5)
        for _ in range(25):
            theta = ParamVector.of(rng.standard_normal((5, 3)),
                                   rng.standard_normal(5))
            data = Points(rng.standard_normal((4, 3)),
                          np.sign(rng.standard_normal(4)))
            for norm in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf()):
                rep = margin_report(evaluate(EXP, model, theta, data), norm)
                L = model.homogeneity_degree
                lo = rep.gamma_algo - math.log(4) / rep.param_norms[norm.label()]**L
                assert lo - 1e-10 <= rep.soft_margin <= rep.gamma_algo + 1e-10

    def test_alignment_bounded(self):
        rng = np.random.default_rng(1)
        model = ModelSpec.two_layer_relu(3, 5)
        for _ in range(25):
            theta = ParamVector.of(rng.standard_normal((5, 3)),
                                   rng.standard_normal(5))
            data = Points(rng.standard_normal((6, 3)),
                          np.sign(rng.standard_normal(6)))
            for norm in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf()):
                rep = margin_report(evaluate(EXP, model, theta, data), norm)
                assert rep.alignment <= 1.0 + 1e-10

    def test_zero_theta_rejected(self):
        model, theta, data = linear_instance([0.0, 0.0], [[1.0, 0.0]], [1.0])
        with pytest.raises(ZeroVectorError):
            margin_report(evaluate(EXP, model, theta, data), NormSpec.l2())

    def test_frozen_second_layer_uses_trainable_norms(self):
        model = ModelSpec.two_layer_relu(2, 2, freeze_second_layer=True)
        w = np.array([[3.0, 0.0], [0.0, 1.0]])
        u = np.array([10.0, 10.0])  # frozen; must not enter any norm
        theta = ParamVector.of(w, u, trainable=(True, False))
        data = Points([[1.0, 0.0]], [1.0])
        rep = margin_report(evaluate(EXP, model, theta, data), NormSpec.spectral())
        assert rep.param_norms["linf"] == pytest.approx(3.0)
        assert rep.param_norms["spectral"] == pytest.approx(3.0)
        assert rep.q_min == pytest.approx(30.0)
        assert rep.gamma_sigma == pytest.approx(10.0)


@pytest.fixture
def rescaled(monkeypatch):
    """Runs the l2 KKT row at (model, theta, data) and returns the rescaled
    point theta~ = theta / q_min^(1/L) whose norm subgradient it takes."""
    seen = []
    subgradient = diagnostics._subgradient

    def spy(spec, theta):
        seen.append(theta)
        return subgradient(spec, theta)

    monkeypatch.setattr(diagnostics, "_subgradient", spy)

    def run(model, theta, data):
        l2_kkt(model, theta, data)
        return seen[-1]
    return run


class TestScaleToFeasible:
    """The KKT row's rescaling of theta onto the unit-margin set."""

    def test_linear(self, rescaled):
        model, theta, data = linear_instance([2.0, 0.0], [[1.0, 0.0]], [1.0])
        np.testing.assert_allclose(rescaled(model, theta, data).blocks[0],
                                   [1.0, 0.0])

    def test_degree_two_uses_square_root(self, rescaled):
        model = ModelSpec.two_layer_relu(2, 1)
        theta = ParamVector.of(np.array([[2.0, 0.0]]), np.array([2.0]))
        data = Points([[1.0, 0.0]], [1.0])  # q_min = 4, L = 2
        scaled = rescaled(model, theta, data)
        assert output_margins(model, scaled, data)[0] == pytest.approx(1.0, rel=1e-10)
        np.testing.assert_allclose(scaled.blocks[0], [[1.0, 0.0]])

    def test_idempotent(self, rescaled):
        model, theta, data = linear_instance([2.0, 1.0], [[1.0, 0.5]], [1.0])
        once = rescaled(model, theta, data)
        twice = rescaled(model, once, data)
        assert once.allclose(twice, rtol=1e-14)

    def test_not_separated(self, rescaled):
        model, theta, data = linear_instance([1.0, 0.0], [[-1.0, 0.0]], [1.0])
        with pytest.raises(NotSeparatedError):
            rescaled(model, theta, data)


def direct_bregman_gap(spec, model, theta, data, rep):
    """0.5||s||*^2 - 0.5||k||*^2 - <theta~, s - k>, with s and k built anew
    from the row's multipliers: s = sum_i lambda_i y_i grad f_i(theta~) and
    k = ||theta~|| times the norm subgradient at theta~."""
    ev = evaluate(EXP, model, theta, data)
    q_min = float(ev.q.min())
    theta_f = theta.scaled_trainable(q_min ** (-1.0 / model.homogeneity_degree))
    s = weighted_subgradient_sum(model, theta_f, data.X,
                                 data.y * np.exp(rep.log_lambda))
    s = s.like(s.trainable_flat())
    k = norm_subgradient(spec, theta_f).scaled(norm_value(spec, theta_f))
    diff = s - k
    return (0.5 * dual_norm_value(spec, s)**2 - 0.5 * dual_norm_value(spec, k)**2
            - theta_f.dot_flat(diff.flat()))


class TestBregmanDivergence:
    """The KKT row's Bregman gap between s and k in the algorithm geometry."""

    def test_identical_points(self):
        # one example: s = k, so the gap vanishes
        model, theta, data = linear_instance([2.0, 0.0], [[1.0, 0.0]], [1.0])
        assert l2_kkt(model, theta, data).bregman_gap == pytest.approx(
            0.0, abs=1e-14)

    def test_l2_closed_form(self):
        # in l2, k = theta~ and the gap is 0.5 ||s - k||^2 = 0.5 eps^2
        model, theta, data = linear_instance(
            [1.0, 0.2], [[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0])
        rep = l2_kkt(model, theta, data)
        assert rep.eps > 1e-3
        assert rep.bregman_gap == pytest.approx(0.5 * rep.eps**2, rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        model = ModelSpec.linear(4)
        for spec in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf()):
            for _ in range(20):
                theta = ParamVector.of(rng.standard_normal(4))
                X = rng.standard_normal((5, 4))
                data = Points(X, np.sign(forward_batch(model, theta, X)))
                ev = evaluate(EXP, model, theta, data)
                rep = kkt_residuals(ev, margin_report(ev, spec))
                direct = direct_bregman_gap(spec, model, theta, data, rep)
                assert rep.bregman_gap == pytest.approx(
                    direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m_tail", [4.0, 0.0])
    def test_frozen_blocks_stay_out_of_the_inner_product(self, m_tail):
        # a frozen second layer, one of its weights m_tail: only the first
        # layer enters s, k and <theta~, s - k>, so the l2 gap stays
        # 0.5 eps^2 and matches the direct formula on the trainable blocks
        model = ModelSpec.two_layer_relu(2, 2, freeze_second_layer=True)
        theta = ParamVector.of(np.array([[1.0, 2.0], [0.5, -1.0]]),
                               np.array([3.0, m_tail]), trainable=(True, False))
        data = Points([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        rep = l2_kkt(model, theta, data)
        assert rep.bregman_gap == pytest.approx(0.5 * rep.eps**2, rel=1e-12)
        direct = direct_bregman_gap(NormSpec.l2(), model, theta, data, rep)
        assert rep.bregman_gap == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestDetectSeparation:
    def test_exponential_strict(self):
        assert -0.01 < separation_threshold(EXP)
        assert not 0.0 < separation_threshold(EXP)

    def test_logistic_threshold(self):
        assert -0.4 < separation_threshold(LOG)
        assert not -0.3 < separation_threshold(LOG)


class TestKKTResiduals:
    def test_single_example_exact_stationarity(self):
        model, theta, data = linear_instance([2.0, 0.0], [[1.0, 0.0]], [1.0])
        rep = l2_kkt(model, theta, data)
        assert rep.eps == pytest.approx(0.0, abs=1e-14)
        assert rep.delta == pytest.approx(0.0, abs=1e-14)
        assert np.exp(rep.log_lambda[0]) == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_pair_at_max_margin_direction(self):
        model, theta, data = linear_instance(
            [1.3, 1.3], [[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0])
        rep = l2_kkt(model, theta, data)
        assert rep.eps <= 1e-8
        assert abs(rep.delta) <= 1e-14

    def test_off_direction_has_residual(self):
        model, theta, data = linear_instance(
            [1.0, 0.2], [[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0])
        rep = l2_kkt(model, theta, data)
        assert rep.eps > 1e-3

    def test_not_separated_rejected(self):
        model, theta, data = linear_instance([1.0, 0.0], [[-1.0, 0.0]], [1.0])
        with pytest.raises(NotSeparatedError):
            l2_kkt(model, theta, data)

    def test_no_delta_bound_where_log_loss_is_not_negative(self):
        """The bound divides by -log-loss: a separated point whose log-loss
        is positive has none, and the Bregman bound is unaffected."""
        model, theta, data = linear_instance(
            [0.1, 0.0], [[1.0, 0.2], [0.8, -0.3], [-1.0, 0.1], [-0.7, 0.4]],
            [1.0, 1.0, -1.0, -1.0])
        ev = evaluate(EXP, model, theta, data)
        assert ev.q.min() > 0.0 and ev.log_loss > 0.0
        rep = l2_kkt(model, theta, data, gamma_tilde_t0=0.5)
        assert rep.delta_bound is None and rep.bregman_bound is not None

    def test_bounds_require_t0_margin(self):
        model, theta, data = linear_instance([2.0, 0.0], [[1.0, 0.0]], [1.0])
        rep = l2_kkt(model, theta, data)
        assert rep.bregman_bound is None and rep.delta_bound is None
        rep = l2_kkt(model, theta, data, gamma_tilde_t0=0.5)
        assert rep.bregman_bound is not None and rep.delta_bound is not None
        assert rep.bregman_gap <= rep.bregman_bound + 1e-8

    def test_delta_nonnegative(self):
        rng = np.random.default_rng(5)
        model = ModelSpec.linear(3)
        hits = 0
        while hits < 20:
            theta = ParamVector.of(rng.standard_normal(3))
            data = Points(rng.standard_normal((5, 3)), np.sign(rng.standard_normal(5)))
            if output_margins(model, theta, data).min() <= 0:
                continue
            hits += 1
            rep = l2_kkt(model, theta, data)
            assert rep.delta >= -1e-12

    def test_log_domain_survives_extreme_margins(self):
        model, theta, data = linear_instance(
            [900.0, 900.0], [[1.0, 1.0], [-1.0, -1.1]], [1.0, -1.0])
        rep = l2_kkt(model, theta, data)
        assert np.isfinite(rep.eps)
        assert np.isfinite(rep.log_lambda).all()
        assert rep.eps <= 0.2  # near the (1,1) direction


class TestOneNormPerRow:
    @pytest.mark.parametrize("algo, freeze", [
        (NormSpec.l1(), False), (NormSpec.l2(), False), (NormSpec.linf(), False),
        (NormSpec.spectral(), False), (NormSpec.spectral(), True),
        (NormSpec.l2(), True),
        (NormSpec.modular([NormSpec.spectral(), NormSpec.l2()]), False)])
    def test_each_parameter_norm_is_computed_once(self, monkeypatch, algo,
                                                  freeze):
        """The margin and KKT reports of one logged row measure each
        (norm, vector) pair once: every norm, dual norm and subgradient
        reads its segments through ``norms._segments``."""
        rng = np.random.default_rng(4)
        model = ModelSpec.two_layer_relu(3, 5, freeze_second_layer=freeze)
        theta = ParamVector.of(rng.standard_normal((5, 3)),
                               rng.standard_normal(5),
                               trainable=(True, not freeze))
        X = rng.standard_normal((12, 3))
        data = Points(X, np.sign(forward_batch(model, theta, X)))
        calls = []

        segments = norms._segments

        def spy(spec, v, flat=None):
            coordinates = v.trainable_flat() if flat is None else flat
            calls.append((spec, coordinates.tobytes()))
            return segments(spec, v, flat)

        monkeypatch.setattr(norms, "_segments", spy)
        ev = evaluate(EXP, model, theta, data)
        kkt_residuals(ev, margin_report(ev, algo), gamma_tilde_t0=1.0)
        # the l1, l2, linf, spectral and algorithm norms of theta, the dual
        # norm of g_hat, the norm and subgradient of the rescaled theta
        # (one pass), and the dual norms of s and k
        reported = 8 if algo.kind != "modular_max" else 9
        assert len(calls) == len(set(calls)) == reported
