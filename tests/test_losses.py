import math

import mpmath as mp
import numpy as np
import pytest

from steepdesc.errors import StaleEvaluationError
from steepdesc.losses import (LossSpec, evaluate, log_loss, log_terms,
                              loss_subgradient, output_margins, phi,
                              phi_inverse, phi_prime, separation_threshold)
from steepdesc.models import (ModelSpec, Workspace, network_subgradient,
                              weighted_subgradient_sum)
from steepdesc.params import ParamVector, from_flat


class Points:
    def __init__(self, X, y):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)


EXP = LossSpec.exponential()
LOG = LossSpec.logistic()


def mp_log_loss(loss, q, dps=None):
    """High-precision reference evaluation of log sum_i l(q_i)."""
    dps = dps or max(50, int(np.max(np.abs(q))) + 50)
    with mp.workdps(dps):
        if loss.kind == "exponential":
            terms = [mp.e**(-mp.mpf(v)) for v in q]
        else:
            terms = [mp.log1p(mp.e**(-mp.mpf(v))) for v in q]
        return float(mp.log(mp.fsum(terms)))


def mp_phi_logistic(u, dps=None):
    dps = dps or max(60, int(abs(u)) + 50)
    with mp.workdps(dps):
        return -mp.log(mp.log1p(mp.e**(-mp.mpf(u))))


class TestLogLoss:
    def test_exponential_zero_margin(self):
        assert log_loss(EXP, np.array([0.0])) == 0.0

    def test_exponential_two_terms(self):
        got = log_loss(EXP, np.array([10.0, 12.0]))
        assert got == pytest.approx(mp_log_loss(EXP, [10.0, 12.0]), rel=1e-14)
        assert got == pytest.approx(-10.0 + math.log1p(math.exp(-2.0)), rel=1e-14)

    def test_logistic_zero_margins(self):
        got = log_loss(LOG, np.array([0.0, 0.0]))
        assert got == pytest.approx(math.log(2.0 * math.log(2.0)), rel=1e-14)
        assert got == pytest.approx(mp_log_loss(LOG, [0.0, 0.0]), rel=1e-14)

    def test_matches_direct_summation_in_range(self):
        rng = np.random.default_rng(0)
        for loss in (EXP, LOG):
            for _ in range(50):
                q = rng.uniform(-20.0, 30.0, size=rng.integers(1, 9))
                direct = math.log(np.exp(log_terms(loss, q)).sum())
                assert log_loss(loss, q) == pytest.approx(direct, rel=1e-12)

    def test_survives_underflow(self):
        q = np.array([1500.0, 1502.0])
        for loss in (EXP, LOG):
            got = log_loss(loss, q)
            assert np.isfinite(got)
            assert got == pytest.approx(mp_log_loss(loss, q), rel=1e-13)

    def test_logistic_extreme_negative(self):
        q = np.array([-650.0])
        assert log_loss(LOG, q) == pytest.approx(mp_log_loss(LOG, q), rel=1e-13)


class TestPhi:
    def test_logistic_phi_matches_reference(self):
        for u in (-20.0, -1.0, 0.0, 1.0, 25.0, 40.0, 300.0, 700.0):
            assert phi(LOG, u) == pytest.approx(float(mp_phi_logistic(u)), rel=1e-13)

    def test_phi_prime_positive_on_grid(self):
        grid = np.linspace(-20.0, 700.0, 400)
        for loss in (EXP, LOG):
            assert np.all(phi_prime(loss, grid) > 0.0)

    def test_u_phi_prime_nondecreasing(self):
        grid = np.linspace(0.0, 700.0, 2000)
        for loss in (EXP, LOG):
            vals = grid * phi_prime(loss, grid)
            assert np.all(np.diff(vals) >= -1e-12)


class TestPhiInverse:
    def test_exponential_identity(self):
        assert phi_inverse(EXP, 5.0) == 5.0

    def test_logistic_inverse_at_known_point(self):
        v = -math.log(math.log(2.0))  # Phi(0)
        assert phi_inverse(LOG, v) == pytest.approx(0.0, abs=1e-14)

    def test_logistic_large_argument(self):
        # Phi^{-1}(50) differs from 50 by about e^{-50}/2, which vanishes
        # at double precision
        assert abs(phi_inverse(LOG, 50.0) - 50.0) <= 1e-20

    def test_against_root_finding_oracle(self):
        # independent oracle: solve Phi(u) = v with mpmath's root finder,
        # polishing from the candidate (Phi is strictly increasing, so the
        # root is unique)
        for v in (-1.0, 0.0, 0.5, 2.0, 10.0, 29.0, 35.0, 120.0, 700.0):
            got = phi_inverse(LOG, v)
            dps = max(80, int(abs(v)) + 60)
            with mp.workdps(dps):
                u_star = float(mp.findroot(
                    lambda u: mp_phi_logistic(u, dps=2 * dps) - mp.mpf(v),
                    mp.mpf(got), tol=mp.mpf(10) ** (-dps // 2)))
            assert got == pytest.approx(u_star, rel=1e-12)

    def test_round_trip(self):
        for v in np.linspace(-1.0, 700.0, 57):
            u = phi_inverse(LOG, float(v))
            assert phi(LOG, u) == pytest.approx(v, rel=1e-10, abs=1e-10)
        for u in np.linspace(-3.0, 690.0, 43):
            assert phi_inverse(LOG, float(phi(LOG, u))) == pytest.approx(
                u, rel=1e-10, abs=1e-10)
        for v in np.linspace(-5.0, 40.0, 23):
            assert phi_inverse(EXP, phi(EXP, v)) == pytest.approx(v, rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            phi_inverse(LOG, -800.0)
        with pytest.raises(ValueError):
            phi_inverse(LOG, float("nan"))


class TestSeparationThreshold:
    def test_exponential(self):
        assert separation_threshold(EXP) == 0.0

    def test_logistic(self):
        assert separation_threshold(LOG) == pytest.approx(
            math.log(math.log(2.0)), rel=1e-15)

    def test_equals_log_l_at_zero(self):
        for loss in (EXP, LOG):
            assert separation_threshold(loss) == pytest.approx(
                float(log_terms(loss, np.array([0.0]))[0]), rel=1e-14)


class TestLossSubgradient:
    def test_single_example_at_origin(self):
        model = ModelSpec.linear(2)
        theta = ParamVector.of(np.zeros(2))
        data = Points([[1.0, 0.0]], [1.0])
        g, logw = loss_subgradient(EXP, model, theta, data)
        np.testing.assert_allclose(g.blocks[0], [-1.0, 0.0])
        np.testing.assert_allclose(logw, [0.0])

    def test_symmetric_pair(self):
        model = ModelSpec.linear(2)
        theta = ParamVector.of(np.zeros(2))
        data = Points([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0])
        g, _ = loss_subgradient(EXP, model, theta, data)
        np.testing.assert_allclose(g.blocks[0], [-2.0, 0.0])

    def test_matches_finite_differences(self):
        # central differences of the total loss at moderate margins
        rng = np.random.default_rng(3)
        model = ModelSpec.two_layer_relu(3, 4)
        for loss in (EXP, LOG):
            theta = ParamVector.of(rng.standard_normal((4, 3)),
                                   rng.standard_normal(4))
            data = Points(rng.standard_normal((5, 3)), np.sign(rng.standard_normal(5)))
            g, _ = loss_subgradient(loss, model, theta, data)
            flat = theta.flat()
            h = 1e-6
            num = np.empty_like(flat)
            for i in range(flat.size):
                up, dn = flat.copy(), flat.copy()
                up[i] += h
                dn[i] -= h
                lu = math.exp(log_loss(loss, output_margins(
                    model, from_flat(up, theta.shapes()), data)))
                ld = math.exp(log_loss(loss, output_margins(
                    model, from_flat(dn, theta.shapes()), data)))
                num[i] = (lu - ld) / (2 * h)
            np.testing.assert_allclose(g.flat(), num, rtol=1e-5, atol=1e-7)

    def test_reconstruction_from_log_weights(self):
        rng = np.random.default_rng(5)
        model = ModelSpec.two_layer_relu(3, 4)
        theta = ParamVector.of(rng.standard_normal((4, 3)), rng.standard_normal(4))
        data = Points(rng.standard_normal((6, 3)), np.sign(rng.standard_normal(6)))
        for loss in (EXP, LOG):
            g, logw = loss_subgradient(loss, model, theta, data)
            rebuilt = theta.zeros_like()
            for w, yi, xi in zip(np.exp(logw), data.y, data.X):
                h = network_subgradient(model, theta, xi)
                rebuilt = rebuilt + h.scaled(-w * yi)
            assert g.allclose(rebuilt, rtol=1e-10, atol=1e-13)

    def test_scaled_form_consistency(self):
        rng = np.random.default_rng(11)
        model = ModelSpec.linear(3)
        theta = ParamVector.of(rng.standard_normal(3))
        data = Points(rng.standard_normal((4, 3)), np.sign(rng.standard_normal(4)))
        g, _ = loss_subgradient(EXP, model, theta, data)
        g_hat, scale = evaluate(EXP, model, theta, data).subgradient
        assert g.allclose(g_hat.scaled(math.exp(scale)), rtol=1e-12, atol=1e-300)

    def test_direction_survives_extreme_margins(self):
        # raw gradient underflows but the scaled factorization keeps the
        # direction
        model = ModelSpec.linear(2)
        theta = ParamVector.of(np.array([2000.0, 0.0]))
        data = Points([[1.0, 0.1], [1.0, -0.2]], [1.0, 1.0])
        g_hat, scale = evaluate(EXP, model, theta, data).subgradient
        assert scale < -1500.0
        assert np.linalg.norm(g_hat.flat()) > 0.5
        assert np.isfinite(g_hat.flat()).all()


def random_point(rng, model):
    if model.kind == "linear":
        return ParamVector.of(rng.standard_normal(model.input_dim))
    return ParamVector.of(rng.standard_normal((model.width, model.input_dim)),
                          rng.standard_normal(model.width),
                          trainable=(True, not model.freeze_second_layer))


def reference_sum(model, theta, X, coeffs):
    """The weighted subgradient sum as fresh temporaries, one expression each."""
    if model.kind == "linear":
        return ParamVector((coeffs @ X,), theta.trainable)
    w, u = theta.blocks
    z = X @ w.T
    active = (z > 0.0).astype(np.float64)
    weighted = coeffs[:, None] * active
    dw = (weighted.T @ X) * u[:, None]
    du = np.maximum(z, 0.0).T @ coeffs
    grad = ParamVector((dw, du), theta.trainable)
    return grad.embed_trainable(grad.trainable_view())


def fresh_subgradient(ev):
    """The subgradient of ``ev`` from ``reference_sum``, checked bitwise
    against ``weighted_subgradient_sum``."""
    scale = float(np.max(ev.logw))
    coeffs = -ev.data.y * np.exp(ev.logw - scale)
    ref = reference_sum(ev.model, ev.theta, ev.data.X, coeffs)
    assert same_bits(weighted_subgradient_sum(ev.model, ev.theta, ev.data.X, coeffs), ref)
    return ref, scale


def same_bits(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.blocks, b.blocks))


SHARED_MODELS = [ModelSpec.two_layer_relu(5, 16),
                 ModelSpec.two_layer_relu(5, 16, freeze_second_layer=True),
                 ModelSpec.linear(5)]


class TestSharedHiddenLayer:
    @pytest.mark.parametrize("model", SHARED_MODELS)
    def test_equals_a_fresh_weighted_sum_across_reuse(self, model):
        rng = np.random.default_rng(5)
        data = Points(rng.standard_normal((37, 5)), np.sign(rng.standard_normal(37)))
        work = Workspace(model, 37)
        for _ in range(2):          # the second pass reuses the buffers
            ev = evaluate(LOG, model, random_point(rng, model), data, work)
            (g_hat, scale), (ref, ref_scale) = ev.subgradient, fresh_subgradient(ev)
            assert scale == ref_scale
            assert same_bits(g_hat, ref)

    def test_stale_evaluation_raises(self):
        rng = np.random.default_rng(6)
        model = SHARED_MODELS[0]
        data = Points(rng.standard_normal((9, 5)), np.sign(rng.standard_normal(9)))
        work = Workspace(model, 9)
        read = evaluate(EXP, model, random_point(rng, model), data, work)
        read.subgradient
        stale = evaluate(EXP, model, random_point(rng, model), data, work)
        evaluate(EXP, model, random_point(rng, model), data, work)
        with pytest.raises(StaleEvaluationError):
            stale.subgradient
        assert same_bits(read.subgradient[0], fresh_subgradient(read)[0])
