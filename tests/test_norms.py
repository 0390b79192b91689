import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steepdesc import norms
from steepdesc.errors import ShapeMismatchError, ZeroVectorError
from steepdesc.norms import (NormSpec, dual_norm_value, norm_subgradient,
                             norm_value, steepest_direction, thin_svd,
                             unit_steepest_direction)
from steepdesc.optimizers import OptimizerSpec, SteepestMethod, step_steepest
from steepdesc.params import ParamVector


def pv(*arrays):
    return ParamVector.of(*(np.asarray(a, dtype=float) for a in arrays))


ALL_FLAT = [NormSpec.l1(), NormSpec.l2(), NormSpec.linf()]


def random_param_vector(rng, spectral_friendly=False):
    if spectral_friendly or rng.random() < 0.5:
        blocks = [rng.standard_normal((rng.integers(1, 5), rng.integers(1, 5))),
                  rng.standard_normal(rng.integers(1, 6))]
    else:
        blocks = [rng.standard_normal(rng.integers(1, 8))]
    return pv(*blocks)


def all_specs_for(v):
    specs = list(ALL_FLAT) + [NormSpec.spectral()]
    block_choices = [NormSpec.l2(), NormSpec.linf(), NormSpec.spectral(),
                     NormSpec.l1()]
    specs.append(NormSpec.modular([block_choices[i % len(block_choices)]
                                   for i in range(len(v.shapes()))]))
    return specs


class TestNormValue:
    def test_l1_closed_form(self):
        assert norm_value(NormSpec.l1(), pv([3.0, -4.0])) == 7.0

    def test_spectral_diagonal_block(self):
        assert norm_value(NormSpec.spectral(), pv(np.diag([2.0, 1.0]))) == pytest.approx(2.0)

    def test_modular_max_of_blocks(self):
        spec = NormSpec.modular([NormSpec.l2(), NormSpec.linf()])
        v = pv([3.0, 4.0], [-5.0, 1.0])
        assert norm_value(spec, v) == pytest.approx(5.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = random_param_vector(rng)
            c = float(rng.uniform(0.1, 10.0))
            for spec in all_specs_for(v):
                assert norm_value(spec, v.scaled(c)) == pytest.approx(
                    c * norm_value(spec, v), rel=1e-12)

    def test_modular_block_count_mismatch(self):
        spec = NormSpec.modular([NormSpec.l2()])
        with pytest.raises(ShapeMismatchError):
            norm_value(spec, pv([1.0], [2.0]))

    def test_no_nested_modular(self):
        inner = NormSpec.modular([NormSpec.l2()])
        with pytest.raises(ValueError):
            NormSpec.modular([inner])


class TestDualNorm:
    def test_l1_dual_is_linf(self):
        assert dual_norm_value(NormSpec.l1(), pv([3.0, -4.0])) == 4.0

    def test_spectral_dual_is_nuclear(self):
        assert dual_norm_value(NormSpec.spectral(), pv(np.diag([2.0, 1.0]))) \
            == pytest.approx(3.0)

    def test_modular_dual_sums_blocks(self):
        spec = NormSpec.modular([NormSpec.l2(), NormSpec.l2()])
        assert dual_norm_value(spec, pv([3.0, 4.0], [0.0, 0.0])) == pytest.approx(5.0)

    def test_generalized_cauchy_schwarz(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = random_param_vector(rng)
            w = ParamVector(tuple(rng.standard_normal(b.shape) for b in u.blocks))
            for spec in all_specs_for(u):
                lhs = abs(u.dot(w))
                rhs = norm_value(spec, u) * dual_norm_value(spec, w)
                assert lhs <= rhs * (1.0 + 1e-10)


class TestSteepestDirection:
    def test_l2_is_negative_gradient(self):
        d = steepest_direction(NormSpec.l2(), pv([3.0, 4.0]))
        np.testing.assert_allclose(d.blocks[0], [-3.0, -4.0])

    def test_l1_coordinate_step(self):
        g = pv([3.0, -4.0])
        d = steepest_direction(NormSpec.l1(), g)
        np.testing.assert_allclose(d.blocks[0], [0.0, 4.0])
        assert d.dot(g) == pytest.approx(-16.0)

    def test_linf_sign_step(self):
        g = pv([3.0, -4.0])
        d = steepest_direction(NormSpec.linf(), g)
        np.testing.assert_allclose(d.blocks[0], [-7.0, 7.0])
        assert d.dot(g) == pytest.approx(-49.0)

    def test_single_spectral_block(self):
        g = pv(np.diag([2.0, 1.0]))
        d = steepest_direction(NormSpec.spectral(), g)
        np.testing.assert_allclose(d.blocks[0], -3.0 * np.eye(2), atol=1e-12)
        assert norm_value(NormSpec.spectral(), d) == pytest.approx(3.0)

    def test_zero_gradient_maps_to_zero(self):
        g = pv([0.0, 0.0])
        for spec in ALL_FLAT:
            assert not steepest_direction(spec, g).blocks[0].any()

    def test_dual_pairing_identity(self):
        # <d, g> = -||g||*^2 and ||d|| = ||g||* for every spec
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = random_param_vector(rng)
            for spec in all_specs_for(g):
                dual = dual_norm_value(spec, g)
                if dual == 0.0:
                    continue
                d = steepest_direction(spec, g)
                assert d.dot(g) == pytest.approx(-dual * dual, rel=1e-10)
                assert norm_value(spec, d) == pytest.approx(dual, rel=1e-10)

    def test_flat_agrees_with_modular_split(self):
        # l1/linf on the flat view == modular composition over per-coordinate
        # blocks, checked exhaustively for p <= 6
        rng = np.random.default_rng(5)
        for p in range(2, 7):
            flat = rng.standard_normal(p)
            g_flat = pv(flat)
            g_split = ParamVector(tuple(np.array([v]) for v in flat))
            mod_linf = NormSpec.modular([NormSpec.linf()] * p)
            mod_l1_dual = NormSpec.l1()
            assert dual_norm_value(NormSpec.linf(), g_flat) == pytest.approx(
                dual_norm_value(mod_linf, g_split), rel=1e-12)
            d_flat = steepest_direction(NormSpec.linf(), g_flat).flat()
            d_split = steepest_direction(mod_linf, g_split).flat()
            np.testing.assert_allclose(d_flat, d_split, rtol=1e-12)
            # brute force: the l1 steepest direction beats every vertex pair
            d1 = steepest_direction(mod_l1_dual, g_flat)
            best = min(-abs(flat[j]) * abs(flat[j]) for j in range(p))
            assert d1.dot(g_flat) == pytest.approx(best, rel=1e-12)


class TestNormSubgradient:
    def test_l2_unit_vector(self):
        n = norm_subgradient(NormSpec.l2(), pv([3.0, 4.0]))
        np.testing.assert_allclose(n.blocks[0], [0.6, 0.8])

    def test_l1_sign_vector(self):
        theta = pv([3.0, -4.0, 0.0])
        n = norm_subgradient(NormSpec.l1(), theta)
        np.testing.assert_allclose(n.blocks[0], [1.0, -1.0, 0.0])
        assert n.dot(theta) == pytest.approx(7.0)

    def test_linf_peak_coordinate(self):
        theta = pv([3.0, -4.0])
        n = norm_subgradient(NormSpec.linf(), theta)
        np.testing.assert_allclose(n.blocks[0], [0.0, -1.0])
        assert n.dot(theta) == pytest.approx(4.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            norm_subgradient(NormSpec.l2(), pv([0.0, 0.0]))

    def test_subgradient_contract(self):
        # <n, theta> = ||theta|| and ||n||* <= 1 for all specs
        rng = np.random.default_rng(13)
        for _ in range(200):
            theta = random_param_vector(rng)
            for spec in all_specs_for(theta):
                n = norm_subgradient(spec, theta)
                assert n.dot(theta) == pytest.approx(
                    norm_value(spec, theta), rel=1e-10)
                assert dual_norm_value(spec, n) <= 1.0 + 1e-10

    def test_linf_tie_breaks_to_lowest_index(self):
        n = norm_subgradient(NormSpec.linf(), pv([-2.0, 2.0]))
        np.testing.assert_allclose(n.blocks[0], [-1.0, 0.0])


SHAPES = st.one_of(st.tuples(st.integers(1, 5)),
                   st.tuples(st.integers(1, 5), st.integers(1, 5)))
ENTRIES = st.floats(-100.0, 100.0, allow_subnormal=False)
BLOCK_NORMS = [NormSpec.l1(), NormSpec.l2(), NormSpec.linf(), NormSpec.spectral()]


@st.composite
def specs_and_vectors(draw):
    """A norm of any kind and a vector of random block shapes whose
    trainable blocks it measures, with or without a frozen tail block."""
    shapes = draw(st.lists(SHAPES, min_size=1, max_size=3))
    n_frozen = draw(st.integers(0, 1))
    blocks = [draw(arrays(np.float64, shape, elements=ENTRIES))
              for shape in shapes + draw(st.lists(SHAPES, min_size=n_frozen,
                                                  max_size=n_frozen))]
    kind = draw(st.sampled_from(["l1", "l2", "linf", "spectral", "modular"]))
    spec = (NormSpec.modular([draw(st.sampled_from(BLOCK_NORMS)) for _ in shapes])
            if kind == "modular" else NormSpec(kind))
    return spec, ParamVector.of(*blocks,
                                trainable=[True] * len(shapes) + [False] * n_frozen)


class TestPairingProperties:
    """The pairings the update rules and the KKT row rely on, for every norm
    kind; the row's flat helpers are the same code as the public maps."""

    @settings(max_examples=300, deadline=None)
    @given(specs_and_vectors())
    def test_steepest_direction_pairs_with_the_dual_norm(self, case):
        spec, g = case
        dual = dual_norm_value(spec, g)
        assume(dual > 1e-6)
        d = steepest_direction(spec, g)
        assert d.dot(g.like(g.trainable_flat())) == pytest.approx(-dual * dual, rel=1e-9)
        assert norm_value(spec, d) == pytest.approx(dual, rel=1e-9)
        assert (dual_norm_value(spec, g)
                == dual_norm_value(spec, g, g.trainable_flat()) == dual)

    @settings(max_examples=300, deadline=None)
    @given(specs_and_vectors())
    def test_norm_subgradient_pairs_with_the_norm(self, case):
        spec, theta = case
        value = norm_value(spec, theta)
        assume(value > 1e-6)
        n = norm_subgradient(spec, theta)
        assert theta.dot_flat(n.flat()) == pytest.approx(value, rel=1e-9)
        assert dual_norm_value(spec, n) <= 1.0 + 1e-12
        flat_value, flat = norms._subgradient(spec, theta)
        assert flat_value == value
        assert flat.tobytes() == n.flat().tobytes()


# Reference copies of the two per-kind selection chains the norms module
# had before one face routine served both, kept to pin that the routine
# gives the same numbers.

def ref_unit_direction(kind, x):
    """Unit steepest direction of one segment, and ||x||* if formed."""
    if kind == "l2":
        x = x.ravel()
        dual = norms._l2(x)
        return (x / -dual if dual else np.zeros(x.size)), dual
    if kind == "spectral":
        if not x.any():
            return np.zeros(x.size), None
        u, _, v = thin_svd(norms._as_matrix(x))
        return -(u @ v.T).ravel(), None
    x = x.ravel()
    if kind == "l1":
        d = np.zeros(x.size)
        if not x.size:
            return d, 0.0
        a = np.abs(x)
        j = int(a.argmax())
        if x[j]:
            d[j] = -np.sign(x[j])
        return d, float(a[j])
    return (-np.sign(x) if x.any() else np.zeros(x.size)), None


def ref_steepest(spec, g, with_dual):
    parts, duals = [], []
    for kind, x in norms._segments(spec, g):
        unit, dual = ref_unit_direction(kind, x)
        parts.append(unit)
        if with_dual:
            duals.append(norms._block_norm(norms._DUAL[kind], x)
                         if dual is None else dual)
    unit = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return unit, (float(sum(duals)) if with_dual else None)


def ref_subgradient(spec, theta):
    segments = norms._segments(spec, theta)
    values = [norms._block_norm(k, x) for k, x in segments]
    j = values.index(max(values))
    kind, x = segments[j]
    value = values[j]
    if value == 0.0:
        raise ZeroVectorError("norm_subgradient is undefined at theta = 0")
    n = np.zeros(theta.trainable_flat().size)
    start = sum(other.size for _, other in segments[:j])
    sub = n[start:start + x.size]
    if kind == "spectral":
        u, _, v = thin_svd(norms._as_matrix(x))
        sub[:] = np.outer(u[:, 0], v[:, 0]).ravel()
    elif kind == "l2":
        np.divide(x.ravel(), value, out=sub)
    elif kind == "l1":
        np.sign(x.ravel(), out=sub)
    else:
        i = int(np.argmax(np.abs(x.ravel())))
        sub[i] = np.sign(x.ravel()[i])
    return value, n


def two_layer_gradient(case, d, frozen, rng, k=3):
    """A (k, d) W block and a (k,) u block, u frozen or not: random, with
    ties and zeros (entries in {-2, ..., 2}), with a zero W block, or zero."""
    if case == "random":
        blocks = [rng.standard_normal((k, d)), rng.standard_normal(k)]
    elif case == "ties and zeros":
        blocks = [rng.integers(-2, 3, (k, d)), rng.integers(-2, 3, k)]
    elif case == "zero W":
        blocks = [np.zeros((k, d)), rng.integers(-2, 3, k)]
    else:
        blocks = [np.zeros((k, d)), np.zeros(k)]
    return ParamVector.of(*(np.asarray(b, dtype=float) for b in blocks),
                          trainable=[True, not frozen])


def every_spec(n_trainable):
    specs = [NormSpec(kind) for kind in ("l1", "l2", "linf", "spectral")]
    if n_trainable == 1:
        return specs + [NormSpec.modular([b]) for b in BLOCK_NORMS]
    return specs + [NormSpec.modular([a, b]) for a in BLOCK_NORMS
                    for b in BLOCK_NORMS]


class TestOneFaceRoutine:
    """The steepest direction (minus the dual norm's face) and the norm
    subgradient (the norm's face) match the reference chains: subgradients,
    dual norms and the parameters after a step to the bit, unit directions
    in value (a zero entry may come out -0.0)."""

    @pytest.mark.parametrize("case", ["random", "ties and zeros", "zero W",
                                      "all zeros"])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("d", [4, 1])
    def test_matches_the_reference_chains(self, d, frozen, case, monkeypatch):
        rng = np.random.default_rng(d + 10 * frozen)
        g = two_layer_gradient(case, d, frozen, rng)
        # theta holds +0.0 entries: a -0.0 displacement leaves them +0.0
        theta = two_layer_gradient("ties and zeros", d, frozen, rng)
        specs = every_spec(1 if frozen else 2)
        for spec in specs:
            unit, dual = norms.unit_direction_and_dual(spec, g)
            ref_unit, ref_dual = ref_steepest(spec, g, True)
            assert np.array_equal(unit, ref_unit)
            assert np.array_equal(unit_steepest_direction(spec, g).flat(),
                                  ref_unit)
            assert np.float64(dual).tobytes() == np.float64(ref_dual).tobytes()
            assert (np.float64(dual_norm_value(spec, g)).tobytes()
                    == np.float64(ref_dual).tobytes())
            if not g.trainable_flat().any():
                with pytest.raises(ZeroVectorError):
                    norm_subgradient(spec, g)
                with pytest.raises(ZeroVectorError):
                    ref_subgradient(spec, g)
            else:
                value, n = norms._subgradient(spec, g)
                ref_value, ref_n = ref_subgradient(spec, g)
                assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
                assert n.tobytes() == ref_n.tobytes()
                assert norm_subgradient(spec, g).flat().tobytes() == ref_n.tobytes()
        steps = [OptimizerSpec(SteepestMethod(spec, normalized), 0.1)
                 for spec in specs for normalized in (False, True)]
        after = [step_steepest(theta, g, s, log_scale=0.5).flat() for s in steps]
        monkeypatch.setattr(norms, "_steepest", ref_steepest)
        for s, new in zip(steps, after):
            ref = step_steepest(theta, g, s, log_scale=0.5).flat()
            assert new.tobytes() == ref.tobytes(), s


class TestThinSvd:
    def test_diagonal(self):
        u, s, v = thin_svd(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(s, [2.0, 1.0])
        np.testing.assert_allclose(v, np.eye(2), atol=1e-12)

    def test_zero_matrix_empty_spectrum(self):
        _, s, _ = thin_svd(np.zeros((3, 2)))
        assert s.size == 0

    def test_reconstruction_vs_gram_eigendecomposition(self):
        # independent oracle: singular values from eigh of M^T M
        rng = np.random.default_rng(17)
        m = rng.standard_normal((5, 3))
        u, s, v = thin_svd(m)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, m,
                                   atol=1e-10 * np.linalg.norm(m))
        gram_vals = np.linalg.eigh(m.T @ m)[0]
        oracle = np.sqrt(np.clip(gram_vals, 0.0, None))[::-1]
        np.testing.assert_allclose(s, oracle, rtol=1e-8)

    def test_rank_truncation(self):
        m = np.outer([1.0, 2.0], [3.0, 4.0])  # rank one
        _, s, _ = thin_svd(m)
        assert s.size == 1
