import inspect
import math

import numpy as np
import pytest

from steepdesc.data import Dataset
from steepdesc.errors import NonFiniteError
from steepdesc.harness import DataSource, RunConfig, run_training
from steepdesc.losses import (LossSpec, evaluate, log_loss, loss_subgradient,
                              output_margins)
from steepdesc.models import InitSpec, ModelSpec
from steepdesc.norms import (NormSpec, dual_norm_value, norm_subgradient,
                             norm_value, steepest_direction, thin_svd,
                             unit_direction_and_dual, unit_steepest_direction)
from steepdesc.optimizers import (AdamMethod, OptimizerSpec, OptimizerState,
                                  ShampooMethod, SteepestMethod, step_adam,
                                  step_shampoo, step_steepest, take_step)
from steepdesc.params import ParamVector, from_flat


class Points:
    def __init__(self, X, y):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)


def steepest(norm, eta, normalized=False, switch_to=None):
    return OptimizerSpec(SteepestMethod(norm, normalized=normalized),
                         step_size=eta, switch_to=switch_to)


@pytest.mark.parametrize("step", [step_steepest, step_adam, step_shampoo, take_step])
def test_steps_read_eta_from_the_spec_alone(step):
    assert "eta" not in inspect.signature(step).parameters


class TestSteepestStep:
    def test_l2_step(self):
        theta = ParamVector.of(np.array([1.0, 1.0]))
        g = ParamVector.of(np.array([3.0, 4.0]))
        new = step_steepest(theta, g, steepest(NormSpec.l2(), 0.1))
        np.testing.assert_allclose(new.blocks[0], [0.7, 0.6])

    def test_normalized_linf_is_unit_sign_step(self):
        theta = ParamVector.of(np.zeros(2))
        g = ParamVector.of(np.array([3.0, -4.0]))
        spec = steepest(NormSpec.linf(), 0.1, normalized=True)
        new = step_steepest(theta, g, spec)
        np.testing.assert_allclose(new.blocks[0], [-0.1, 0.1])

    def test_zero_gradient_no_move(self):
        theta = ParamVector.of(np.array([1.0, 2.0]))
        g = theta.like(np.zeros(theta.size))
        new = step_steepest(theta, g, steepest(NormSpec.l1(), 0.5))
        assert new.allclose(theta)

    def test_frozen_block_never_moves(self):
        theta = ParamVector.of(np.ones((2, 2)), np.ones(2),
                               trainable=(True, False))
        g = ParamVector.of(np.ones((2, 2)), np.zeros(2),
                           trainable=(True, False))
        for norm in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf(),
                     NormSpec.spectral()):
            new = step_steepest(theta, g, steepest(norm, 0.1))
            np.testing.assert_array_equal(new.blocks[1], theta.blocks[1])
            assert not np.array_equal(new.blocks[0], theta.blocks[0])

    def test_log_scale_factor(self):
        theta = ParamVector.of(np.zeros(2))
        g = ParamVector.of(np.array([1.0, 2.0]))
        spec = steepest(NormSpec.l2(), 1.0)
        a = step_steepest(theta, g.scaled(math.exp(-3.0)), spec)
        b = step_steepest(theta, g, spec, log_scale=-3.0)
        assert a.allclose(b, rtol=1e-12)

    def test_raw_step_decreases_loss_for_small_eta(self):
        # discrete shadow of the descent property: backtrack to find an
        # eta0 that works, then check smaller etas also decrease the loss
        rng = np.random.default_rng(1)
        model = ModelSpec.two_layer_relu(3, 6)
        theta = ParamVector.of(rng.standard_normal((6, 3)),
                               rng.standard_normal(6))
        data = Points(rng.standard_normal((8, 3)), np.sign(rng.standard_normal(8)))
        loss = LossSpec.exponential()
        base = log_loss(loss, output_margins(model, theta, data))
        g, _ = loss_subgradient(loss, model, theta, data)
        for norm in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf()):
            eta = 1.0
            for _ in range(60):
                new = step_steepest(theta, g, steepest(norm, eta))
                if log_loss(loss, output_margins(model, new, data)) < base:
                    break
                eta *= 0.5
            else:
                pytest.fail(f"no descent step found for {norm.kind}")
            for smaller in (eta / 2, eta / 8):
                new = step_steepest(theta, g, steepest(norm, smaller))
                assert log_loss(loss, output_margins(model, new, data)) < base


NORMS = [NormSpec.l1(), NormSpec.l2(), NormSpec.linf(), NormSpec.spectral(),
         NormSpec.modular([NormSpec.spectral(), NormSpec.l2()])]
NORM_IDS = ["l1", "l2", "linf", "spectral", "modular"]
LEAN_SPECS = [steepest(NormSpec.l2(), 0.1),
              steepest(NormSpec.l1(), 0.1, normalized=True),
              steepest(NormSpec.linf(), 0.1, normalized=True)]
LEAN_IDS = ["l2 raw", "l1 normalized", "linf normalized"]


def frozen_or_not(freeze, seed=11, d=4):
    """A two-layer point with d inputs, its data and its evaluation."""
    rng = np.random.default_rng(seed)
    model = ModelSpec.two_layer_relu(d, 6, freeze_second_layer=freeze)
    theta = ParamVector.of(rng.standard_normal((6, d)), rng.standard_normal(6),
                           trainable=(True, not freeze))
    data = Points(rng.standard_normal((10, d)), np.sign(rng.standard_normal(10)))
    return theta, evaluate(LossSpec.exponential(), model, theta, data)


def counted_constructions(monkeypatch) -> list:
    """Count ParamVector constructions, as bench/layer_trace.py does."""
    count = [0]
    post_init = ParamVector.__post_init__

    def counted(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(ParamVector, "__post_init__", counted)
    return count


class TestLeanSteepestStep:
    @pytest.mark.parametrize("freeze", [False, True],
                             ids=["all trainable", "frozen second layer"])
    @pytest.mark.parametrize("spec", LEAN_SPECS, ids=LEAN_IDS)
    def test_vectors_built_per_step(self, monkeypatch, spec, freeze):
        theta, ev = frozen_or_not(freeze)
        count = counted_constructions(monkeypatch)
        g, log_scale = evaluate(ev.loss, ev.model, theta, ev.data).subgradient
        assert count[0] == 1         # the gradient, built by evaluate
        take_step(theta, g, OptimizerState(), spec, log_scale=log_scale)
        # the unit direction and the new theta, with or without a frozen block
        assert count[0] - 1 <= 2

    @pytest.mark.parametrize("norm", NORMS, ids=NORM_IDS)
    def test_gradient_maps_read_the_trainable_prefix(self, norm):
        """Every norm map of a vector with a frozen block (the norm, its
        dual, the unit direction and the norm subgradient) gives that of its
        trainable view, bit for bit; the frozen block, NaN here, is not read."""
        if norm.kind == "modular_max":
            norm = NormSpec.modular([NormSpec.spectral()])
        theta, ev = frozen_or_not(True)
        flat = ev.subgradient[0].flat().copy()
        flat[-6:] = np.nan
        g = theta.like(flat)
        g_tr = g.like(g.trainable_flat())
        assert dual_norm_value(norm, g) == dual_norm_value(norm, g_tr)
        assert norm_value(norm, g) == norm_value(norm, g_tr)
        for fn in (unit_steepest_direction, norm_subgradient):
            out, ref = fn(norm, g), fn(norm, g_tr)
            assert out.shapes() == ref.shapes() and all(out.trainable)
            assert out.flat().tobytes() == ref.flat().tobytes()

    @pytest.mark.parametrize("freeze", [False, True],
                             ids=["all trainable", "frozen second layer"])
    @pytest.mark.parametrize("normalized", [False, True],
                             ids=["raw", "normalized"])
    @pytest.mark.parametrize("norm", NORMS, ids=NORM_IDS)
    def test_step_equals_the_embedded_sum(self, norm, normalized, freeze):
        """theta + embed(factor * unit), the frozen tail zero-filled, is the
        reference the single add_trainable replaces."""
        if freeze and norm.kind == "modular_max":
            norm = NormSpec.modular([NormSpec.spectral()])
        theta, ev = frozen_or_not(freeze)
        g, log_scale = ev.subgradient
        spec = steepest(norm, 0.1, normalized=normalized)
        g_tr = g.like(g.trainable_flat())
        unit = unit_steepest_direction(norm, g_tr)
        factor = 0.1 if normalized else (
            0.1 * dual_norm_value(norm, g_tr) * float(np.exp(log_scale)))
        embedded = np.concatenate((unit.scaled(factor).flat(),
                                   np.zeros(theta.size - g_tr.size)))
        ref = theta + from_flat(embedded, theta.shapes(), theta.trainable)
        new = step_steepest(theta, g, spec, log_scale=log_scale)
        assert new.flat().tobytes() == ref.flat().tobytes()
        assert new.trainable == theta.trainable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("normalized", [False, True],
                             ids=["raw", "normalized"])
    @pytest.mark.parametrize("norm", NORMS, ids=NORM_IDS)
    def test_non_finite_gradient_raises(self, norm, normalized, bad):
        theta, ev = frozen_or_not(False)
        flat = ev.subgradient[0].flat().copy()
        flat[7] = bad
        g = theta.like(flat)
        with pytest.raises(NonFiniteError):
            step_steepest(theta, g, steepest(norm, 0.1, normalized))

    @pytest.mark.parametrize("normalized", [False, True],
                             ids=["raw", "normalized"])
    @pytest.mark.parametrize("norm", NORMS, ids=NORM_IDS)
    def test_zero_gradient_keeps_theta_bytes(self, norm, normalized):
        theta, _ = frozen_or_not(False)
        new = step_steepest(theta, theta.like(np.zeros(theta.size)),
                            steepest(norm, 0.1, normalized), log_scale=3.0)
        assert new.flat().tobytes() == theta.flat().tobytes()


def float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def gradients(theta, g):
    """Gradients a step meets: a loss gradient, one with exact ties in |g|
    and zeros, one with a zero W block, and zero."""
    ties = g.flat().copy()
    ties[:8] = [0.5, -0.5, 0.0, 0.5, -0.25, 0.0, -0.5, 0.5]
    zero_w = g.flat().copy()
    zero_w[:theta.blocks[0].size] = 0.0
    return {"loss": g, "ties": g.like(ties), "zero W": g.like(zero_w),
            "zero": g.like(np.zeros(g.size))}


class TestOnePassStep:
    """The raw step takes its unit direction and dual norm in one pass
    (``unit_direction_and_dual``); these pin it, bit for bit, to the two
    maps it stands for."""

    @pytest.mark.parametrize("d", [4, 1], ids=["4 inputs", "1 input"])
    @pytest.mark.parametrize("freeze", [False, True], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("norm", NORMS, ids=NORM_IDS)
    def test_unit_and_dual_are_those_of_the_two_maps(self, norm, freeze, d):
        if freeze and norm.kind == "modular_max":
            norm = NormSpec.modular([NormSpec.spectral()])
        theta, ev = frozen_or_not(freeze, d=d)
        for name, g in gradients(theta, ev.subgradient[0]).items():
            unit, dual = unit_direction_and_dual(norm, g)
            assert unit.tobytes() == unit_steepest_direction(norm, g).flat().tobytes(), name
            assert float_bits(dual) == float_bits(dual_norm_value(norm, g)), name

    @pytest.mark.parametrize("d", [4, 1], ids=["4 inputs", "1 input"])
    @pytest.mark.parametrize("log_scale", [0.0, -40.0, 3.5])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("norm", NORMS, ids=NORM_IDS)
    def test_step_is_theta_plus_eta_dual_exp_unit(self, norm, normalized, log_scale, d):
        theta, ev = frozen_or_not(False, d=d)
        eta = 0.1
        for name, g in gradients(theta, ev.subgradient[0]).items():
            unit = unit_steepest_direction(norm, g).flat()
            dual = dual_norm_value(norm, g)
            if normalized:
                ref = theta.add_trainable(eta * unit)
            elif dual == 0.0:
                ref = theta
            else:
                ref = theta.add_trainable(eta * dual * float(np.exp(log_scale)) * unit)
            new = step_steepest(theta, g, steepest(norm, eta, normalized),
                                log_scale=log_scale)
            assert new.flat().tobytes() == ref.flat().tobytes(), name


class TestAdam:
    def test_zero_betas_zero_eps_is_sign_step(self):
        theta = ParamVector.of(np.array([1.0, 1.0]))
        g = ParamVector.of(np.array([0.5, -2.0]))
        spec = OptimizerSpec(AdamMethod(0.0, 0.0, 0.0), step_size=0.1)
        new, _ = step_adam(theta, g, OptimizerState(), spec)
        np.testing.assert_array_equal(new.blocks[0], [0.9, 1.1])

    def test_bias_correction_first_step(self):
        theta = ParamVector.of(np.zeros(2))
        g = ParamVector.of(np.array([1.0, 0.0]))
        spec = OptimizerSpec(AdamMethod(0.9, 0.999, 0.0), step_size=1.0)
        _, state = step_adam(theta, g, OptimizerState(), spec)
        m_hat = state.adam_m / (1.0 - 0.9)
        np.testing.assert_allclose(m_hat, [1.0, 0.0])

    @pytest.mark.parametrize("freeze", [False, True],
                             ids=["all trainable", "frozen second layer"])
    def test_vectors_built_per_step(self, monkeypatch, freeze):
        """The moments are flat arrays over the trainable prefix, so an Adam
        step builds the rescaled gradient and the new point, and its state
        holds no vector."""
        theta, ev = frozen_or_not(freeze)
        g, log_scale = ev.subgradient
        spec = OptimizerSpec(AdamMethod(), step_size=0.1)
        count = counted_constructions(monkeypatch)
        state = OptimizerState()
        for _ in range(2):      # from zero moments, then from stored ones
            before = count[0]
            _, state = take_step(theta, g, state, spec, log_scale)
            assert count[0] - before <= 2
        assert state.adam_m.shape == state.adam_v.shape == g.trainable_flat().shape

    def test_large_eps_limit(self):
        theta = ParamVector.of(np.zeros(2))
        g = ParamVector.of(np.array([1.0, 1.0]))
        eps = 1e6
        spec = OptimizerSpec(AdamMethod(0.0, 0.0, eps), step_size=1.0)
        new, _ = step_adam(theta, g, OptimizerState(), spec)
        np.testing.assert_allclose(new.blocks[0], -g.blocks[0] / eps, rtol=1e-5)

    def test_zero_coordinate_stays_put(self):
        theta = ParamVector.of(np.array([1.0, 1.0]))
        g = ParamVector.of(np.array([0.0, 2.0]))
        spec = OptimizerSpec(AdamMethod(0.0, 0.0, 0.0), step_size=0.1)
        new, _ = step_adam(theta, g, OptimizerState(), spec)
        assert new.blocks[0][0] == 1.0

    def test_matches_normalized_sign_descent_bitwise(self):
        # beta1 = beta2 = eps = 0 reproduces the normalized l-inf steepest
        # direction bit for bit, on every step of a shared trajectory
        rng = np.random.default_rng(42)
        model = ModelSpec.two_layer_relu(3, 4)
        theta = ParamVector.of(0.05 * rng.standard_normal((4, 3)),
                               0.05 * rng.standard_normal(4))
        data = Points(rng.standard_normal((6, 3)), np.sign(rng.standard_normal(6)))
        loss = LossSpec.exponential()
        eta = 0.01
        adam_spec = OptimizerSpec(AdamMethod(0.0, 0.0, 0.0), step_size=eta)
        sd_spec = steepest(NormSpec.linf(), eta, normalized=True)
        state = OptimizerState()
        for _ in range(50):
            g, _ = loss_subgradient(loss, model, theta, data)
            via_sd = step_steepest(theta, g, sd_spec)
            via_adam, state = step_adam(theta, g, state, adam_spec)
            assert all(np.array_equal(a, b) for a, b in
                       zip(via_sd.blocks, via_adam.blocks))
            theta = via_adam
            state = OptimizerState()  # memoryless at beta = 0


class TestShampoo:
    def test_first_step_diag(self):
        theta = ParamVector.of(np.zeros((2, 2)))
        g = ParamVector.of(np.diag([3.0, 1.0]))
        spec = OptimizerSpec(ShampooMethod(0.0), step_size=0.5)
        new, _ = step_shampoo(theta, g, OptimizerState(), spec)
        np.testing.assert_allclose(new.blocks[0], -0.5 * np.eye(2), atol=1e-12)

    def test_zero_gradient_no_move(self):
        theta = ParamVector.of(np.ones((2, 3)))
        g = theta.like(np.zeros(theta.size))
        spec = OptimizerSpec(ShampooMethod(0.0), step_size=0.5)
        new, state = step_shampoo(theta, g, OptimizerState(), spec)
        np.testing.assert_array_equal(new.blocks[0], theta.blocks[0])
        assert not state.shampoo[0][0].any()

    def test_first_step_equals_normalized_spectral_direction(self):
        rng = np.random.default_rng(3)
        g_mat = rng.standard_normal((8, 6))
        theta = ParamVector.of(np.zeros((8, 6)))
        g = ParamVector.of(g_mat)
        eta = 0.7
        spec = OptimizerSpec(ShampooMethod(0.0), step_size=eta)
        new, _ = step_shampoo(theta, g, OptimizerState(), spec)
        u, _, v = thin_svd(g_mat)
        np.testing.assert_allclose(new.blocks[0], -eta * (u @ v.T), atol=1e-8)
        direction = steepest_direction(NormSpec.spectral(), g)
        unit = direction.scaled(1.0 / dual_norm_value(NormSpec.spectral(), g))
        np.testing.assert_allclose(new.blocks[0], eta * unit.blocks[0], atol=1e-8)

    def test_accumulators_grow(self):
        rng = np.random.default_rng(4)
        theta = ParamVector.of(np.zeros((3, 2)))
        spec = OptimizerSpec(ShampooMethod(0.0), step_size=0.1)
        state = OptimizerState()
        g1 = ParamVector.of(rng.standard_normal((3, 2)))
        _, state = step_shampoo(theta, g1, state, spec)
        left_after_one = state.shampoo[0][0].copy()
        _, state = step_shampoo(theta, g1, state, spec)
        np.testing.assert_allclose(state.shampoo[0][0], 2.0 * left_after_one,
                                   rtol=1e-12)

    def test_vector_block_as_column(self):
        theta = ParamVector.of(np.zeros(3))
        g = ParamVector.of(np.array([3.0, 0.0, 4.0]))
        spec = OptimizerSpec(ShampooMethod(0.0), step_size=1.0)
        new, _ = step_shampoo(theta, g, OptimizerState(), spec)
        np.testing.assert_allclose(new.blocks[0], [-0.6, 0.0, -0.8], atol=1e-12)


class TestSwitch:
    def test_not_separated_keeps_spec(self):
        # the switch is gated on separation in run_training: on data with
        # contradictory labels no logged step separates, so a run with a
        # switch rule takes exactly the main spec's steps
        never = Dataset(np.array([[1.0, 0.5], [1.0, 0.5], [-1.0, 0.2]]),
                        np.array([1.0, -1.0, 1.0]))
        cd = steepest(NormSpec.l1(), 0.05)
        gd = steepest(NormSpec.l2(), 0.05)

        def final(spec):
            log = run_training(RunConfig(
                model=ModelSpec.linear(2), init=InitSpec(scale=0.1, seed=3),
                loss=LossSpec.exponential(), optimizer=spec,
                data=DataSource(kind="dataset", dataset_path="unused"),
                epochs=200, log_every=20, diagnostics_norm=NormSpec.l2()),
                train=never)
            assert log.t0_step is None
            return log.final_theta.flat()

        kept = final(gd)
        assert np.array_equal(final(steepest(NormSpec.l2(), 0.05, switch_to=cd)),
                              kept)
        assert not np.array_equal(final(cd), kept)  # a switch would show


class TestTakeStep:
    def test_dispatch_counts_steps(self):
        # a steepest step has no state and returns the one it was given;
        # only Adam counts steps, for its bias correction
        theta = ParamVector.of(np.array([1.0, 1.0]))
        g = ParamVector.of(np.array([1.0, -1.0]))
        state = OptimizerState()
        _, same = take_step(theta, g, state, steepest(NormSpec.l2(), 0.1))
        assert same is state
        _, adam = take_step(theta, g, state, OptimizerSpec(AdamMethod(), step_size=0.1))
        _, adam = take_step(theta, g, adam, OptimizerSpec(AdamMethod(), step_size=0.1))
        assert adam.t == 2
        _, shampoo = take_step(theta, g, state, OptimizerSpec(ShampooMethod(), step_size=0.1))
        assert shampoo.t == 0 and len(shampoo.shampoo) == 1
