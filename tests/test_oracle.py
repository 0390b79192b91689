import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from steepdesc import oracle
from steepdesc.diagnostics import kkt_residuals, margin_report
from steepdesc.errors import ConfigError, NotSeparatedError
from steepdesc.losses import LossSpec, evaluate
from steepdesc.models import ModelSpec
from steepdesc.norms import NormSpec, norm_value
from steepdesc.oracle import grid_max_margin
from steepdesc.params import ParamVector
from steepdesc.rng import Xoshiro256pp


class Points:
    def __init__(self, X, y):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)


SYMMETRIC_PAIR = Points([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0])
DIAGONAL_PAIR = Points([[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0])
def certify_kkt(model, theta, data, algo_norm, tol_eps, tol_delta):
    """True iff the rescaled point meets both residual tolerances, with
    exponential-loss multipliers; raises NotSeparatedError when q_min <= 0."""
    ev = evaluate(LossSpec.exponential(), model, theta, data)
    report = kkt_residuals(ev, margin_report(ev, algo_norm))
    return report.eps <= tol_eps and report.delta <= tol_delta


XOR = Points([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]],
             [1.0, 1.0, -1.0, -1.0])


class TestGridMaxMargin:
    def test_l2_symmetric_pair(self):
        res = grid_max_margin(NormSpec.l2(), SYMMETRIC_PAIR)
        assert res.gamma_star == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(np.abs(res.theta_star.blocks[0]), [1.0, 0.0],
                                   atol=1e-3)

    def test_l2_matches_closed_form_norm(self):
        # two symmetric points at x and -x: gamma* = ||x||_2
        x = np.array([0.6, 0.8])
        data = Points([x, -x], [1.0, -1.0])
        res = grid_max_margin(NormSpec.l2(), data)
        assert res.gamma_star == pytest.approx(np.linalg.norm(x), abs=1e-6)

    def test_l1_geometry_diagonal_pair(self):
        res = grid_max_margin(NormSpec.l1(), DIAGONAL_PAIR)
        assert res.gamma_star == pytest.approx(1.0, abs=1e-9)
        theta = res.theta_star.blocks[0]
        # any convex combination of e1 and e2 is optimal; the tie-break
        # must return a valid vertex-achieving direction of unit l1 norm
        assert np.abs(theta).sum() == pytest.approx(1.0, abs=1e-9)
        assert theta.sum() == pytest.approx(1.0, abs=1e-9)

    def test_xor_not_separable(self):
        for spec in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf()):
            res = grid_max_margin(spec, XOR, resolution=5e-3)
            assert res.gamma_star <= 0.0

    def test_unit_norm_theta_star(self):
        rng = np.random.default_rng(0)
        data = Points(rng.standard_normal((6, 2)), np.sign(rng.standard_normal(6)))
        for spec in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf()):
            res = grid_max_margin(spec, data, resolution=2e-3)
            assert norm_value(spec, res.theta_star) == pytest.approx(1.0, abs=2e-3)

    def test_refinement_is_monotone(self):
        rng = np.random.default_rng(1)
        data = Points(rng.standard_normal((5, 2)), np.sign(rng.standard_normal(5)))
        for spec in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf()):
            coarse = grid_max_margin(spec, data, resolution=4e-2)
            fine = grid_max_margin(spec, data, resolution=2e-2)
            assert fine.gamma_star >= coarse.gamma_star - 1e-12

    def test_three_dimensional(self):
        data = Points([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [1.0, -1.0])
        res = grid_max_margin(NormSpec.l2(), data, resolution=2e-2)
        assert res.gamma_star == pytest.approx(1.0, abs=1e-3)

    def test_dimension_cap(self):
        data = Points(np.eye(4), np.ones(4))
        with pytest.raises(ValueError):
            grid_max_margin(NormSpec.l2(), data)

    @pytest.mark.parametrize("norm", [NormSpec.l1(), NormSpec.l2(), NormSpec.linf()],
                             ids=["l1", "l2", "linf"])
    def test_no_features_is_a_config_error(self, norm):
        data = Points(np.empty((2, 0)), [1.0, -1.0])
        with pytest.raises(ConfigError, match=r"needs 1 <= d <= 3, got d = 0"):
            grid_max_margin(norm, data)

    def test_spectral_alias_matches_l2(self):
        a = grid_max_margin(NormSpec.l2(), SYMMETRIC_PAIR, resolution=1e-2)
        b = grid_max_margin(NormSpec.spectral(), SYMMETRIC_PAIR, resolution=1e-2)
        assert a.gamma_star == b.gamma_star


# Reference: the per-norm builders and the candidate count the oracle had
# before its grids shared one face routine, kept to check that routine
# against, byte for byte and cap decision for cap decision.
def _ref_segments(span, resolution):
    steps = span / resolution
    if steps > oracle.MAX_GRID_POINTS:
        raise ConfigError("too fine")
    return 1 << (max(1, math.ceil(steps)) - 1).bit_length()


def _ref_grid_points(kind, d, resolution):
    if d == 1:
        return 2
    if kind == "l2":
        n = _ref_segments(2.0 * math.pi, resolution)
        return n if d == 2 else (_ref_segments(math.pi, resolution) + 1) * n
    if kind == "l1":
        t = _ref_segments(1.0, resolution) + 1
        return 4 * t if d == 2 else 4 * t * (t + 1)
    t = _ref_segments(2.0, resolution) + 1
    return 4 * t if d == 2 else 6 * t * t


def _ref_l2_candidates(d, resolution):
    if d == 1:
        return np.array([[-1.0], [1.0]])
    if d == 2:
        n = _ref_segments(2.0 * math.pi, resolution)
        ang = np.arange(n) * (2.0 * math.pi / n)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    n_phi = _ref_segments(math.pi, resolution)
    n_psi = _ref_segments(2.0 * math.pi, resolution)
    phi = np.linspace(0.0, math.pi, n_phi + 1)
    psi = np.arange(n_psi) * (2.0 * math.pi / n_psi)
    pp, ss = np.meshgrid(phi, psi, indexing="ij")
    return np.stack([np.sin(pp) * np.cos(ss),
                     np.sin(pp) * np.sin(ss),
                     np.cos(pp)], axis=-1).reshape(-1, 3)


def _ref_sign_patterns(d):
    return np.array([[1.0 if bits & (1 << i) else -1.0 for i in range(d)]
                     for bits in range(2**d)])


def _ref_l1_candidates(d, resolution):
    if d == 1:
        return np.array([[-1.0], [1.0]])
    n = _ref_segments(1.0, resolution)
    t = np.linspace(0.0, 1.0, n + 1)
    if d == 2:
        base = np.stack([t, 1.0 - t], axis=1)
    else:
        t1, t2 = np.meshgrid(t, t, indexing="ij")
        keep = t1 + t2 <= 1.0 + 1e-15
        base = np.stack([t1[keep], t2[keep], 1.0 - t1[keep] - t2[keep]], axis=1)
    return np.concatenate([base * signs for signs in _ref_sign_patterns(d)],
                          axis=0)


def _ref_linf_candidates(d, resolution):
    if d == 1:
        return np.array([[-1.0], [1.0]])
    n = _ref_segments(2.0, resolution)
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


_REF_BUILDERS = {"l2": _ref_l2_candidates, "l1": _ref_l1_candidates,
                 "linf": _ref_linf_candidates}


class _Built(Exception):
    """Raised by the first numpy call of a grid builder under ``_NoNumpy``."""


class _NoNumpy:
    def __getattr__(self, name):
        raise _Built(name)


class TestGridBuilders:
    @pytest.mark.parametrize("kind", sorted(_REF_BUILDERS))
    @pytest.mark.parametrize("d, resolution", [
        (d, r) for d in (1, 2, 3)
        for r in (2.0, 0.5, 0.3, 0.05, 0.013, 4e-2, 2e-2, 5e-3, 2e-3, 1e-3)
        if d < 3 or r > 1e-3])       # d = 3 at 1e-3 is tens of millions of points
    def test_candidates_match_the_reference_byte_for_byte(self, kind, d,
                                                          resolution):
        want = _REF_BUILDERS[kind](d, resolution)
        got = oracle._candidates(kind, d, resolution)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", sorted(_REF_BUILDERS))
    @pytest.mark.parametrize("d", [2, 3])
    def test_cap_decisions_match_the_reference(self, kind, d, monkeypatch):
        """Refused or built, each grid decides as the reference count does,
        and decides before its first numpy call."""
        monkeypatch.setattr(oracle, "np", _NoNumpy())
        for resolution in np.logspace(-9, 1, 400):
            try:
                refused = _ref_grid_points(kind, d, resolution) > oracle.MAX_GRID_POINTS
            except ConfigError:
                refused = True
            with pytest.raises(ConfigError if refused else _Built) as info:
                oracle._candidates(kind, d, float(resolution))
            if refused:
                assert str(info.value) == (
                    f"resolution {resolution:g} needs more than "
                    f"{oracle.MAX_GRID_POINTS} grid points")

    @pytest.mark.parametrize("norm, resolution", [
        (NormSpec.l1(), 1e-7), (NormSpec.linf(), 1e-7), (NormSpec.l2(), 1e-6)])
    def test_a_refused_grid_allocates_nothing_of_its_size(self, norm, resolution):
        data = Points([[1.0, 0.5, 0.25], [-1.0, 0.0, 0.5]], [1.0, -1.0])
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="grid points"):
                grid_max_margin(norm, data, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# (seed, norm, gamma_star, theta_star) of grid_max_margin on
# _pinned_instance(seed), as float.hex, taken before the grids shared one
# face routine
_PINNED = [
    (0, 'l1', '-0x1.4efbd6b3ab57bp-1',
     ['0x1.0000000000000p+0']),
    (1, 'l1', '-0x1.7bcaa520d103ep-3',
     ['0x1.7000000000000p-3', '-0x1.a400000000000p-1']),
    (2, 'l1', '0x1.df6fd55a28385p-2',
     ['-0x1.0000000000000p-2', '-0x1.8000000000000p-1', '-0x0.0p+0']),
    (3, 'l2', '-0x1.2091a85d3871cp+0',
     ['-0x1.0000000000000p+0']),
    (4, 'l2', '-0x1.3b269cc084d67p-4',
     ['-0x1.ff3830f8d575cp-1', '0x1.c428d12c0d7f9p-5']),
    (5, 'l2', '0x1.1058412506d5bp-1',
     ['0x1.e17d692fc5d91p-1', '0x1.7a771df642975p-5', '-0x1.58f9a75ab1fdbp-2']),
    (6, 'linf', '-0x1.3b1ba4a914219p+0',
     ['0x1.0000000000000p+0']),
    (7, 'linf', '0x1.4043ba4a0bd6cp-2',
     ['0x1.8000000000000p-4', '0x1.0000000000000p+0']),
    (8, 'linf', '0x1.fadf4e2b8d55ep-1',
     ['0x1.0000000000000p+0', '0x1.e000000000000p-2', '0x1.0000000000000p+0']),
    (9, 'spectral', '-0x1.27c2413502553p-1',
     ['-0x1.0000000000000p+0']),
    (10, 'spectral', '-0x1.b0822c5bdde9ep-2',
     ['0x1.ed740e7684963p-1', '-0x1.111d262b1f67bp-2']),
    (11, 'spectral', '0x1.be69941023028p-4',
     ['-0x1.01243b05e8346p-1', '0x1.e679bcbcb4a50p-3', '0x1.a9b66290ea1a3p-1']),
    (12, 'l1', '-0x1.c83765d12b8d9p-1',
     ['0x1.0000000000000p+0']),
    (13, 'l1', '-0x1.26deee8b3bc88p-3',
     ['0x1.5000000000000p-3', '0x1.ac00000000000p-1']),
    (14, 'l1', '-0x1.f48ec8e2d2106p-3',
     ['0x1.2000000000000p-2', '-0x1.3000000000000p-1', '-0x1.0000000000000p-3']),
    (15, 'l2', '-0x1.6cfa79b99af0fp+0',
     ['-0x1.0000000000000p+0']),
    (16, 'l2', '0x1.0b12fef060bacp-2',
     ['-0x1.d906bcf328d46p-1', '0x1.87de2a6aea965p-2']),
    (17, 'l2', '0x1.0edff7a427c18p-1',
     ['-0x1.7771e1fea5022p-1', '-0x1.915be19fb872bp-2', '0x1.1c73b39ae68c9p-1']),
    (18, 'linf', '0x1.d624c7082bfd6p-3',
     ['-0x1.0000000000000p+0']),
    (19, 'linf', '-0x1.769e62b05d7ecp-3',
     ['0x1.4000000000000p-1', '0x1.0000000000000p+0']),
    (20, 'linf', '0x1.25b2c9fff7fc8p-3',
     ['0x1.0000000000000p+0', '-0x1.8000000000000p-2', '0x1.0000000000000p+0']),
    (21, 'spectral', '-0x1.7edc211bb32efp+0',
     ['0x1.0000000000000p+0']),
    (22, 'spectral', '-0x1.c1c7091c31520p-4',
     ['0x1.fae8e8e46cfbbp-1', '0x1.20116d4ec7bcep-3']),
    (23, 'spectral', '0x1.27be828d26dc3p-1',
     ['0x1.f80506f85cf2bp-1', '0x1.8d21ffedde916p-4', '-0x1.2c8106e8e6136p-3']),
]


def _pinned_instance(seed):
    """3-6 points in d = 1 + seed % 3 from the pinned Gaussian stream, with
    random labels, and the resolution the pinned search used."""
    d, m = 1 + seed % 3, 3 + seed % 4
    z = Xoshiro256pp(seed).gaussians(m * d + m)
    return (Points(z[:m * d].reshape(m, d), np.where(z[m * d:] >= 0.0, 1.0, -1.0)),
            {1: 0.5, 2: 1e-2, 3: 5e-2}[d])


@pytest.mark.parametrize("seed, norm, gamma_hex, theta_hex", _PINNED,
                         ids=[f"{p[0]}-{p[1]}" for p in _PINNED])
def test_oracle_results_are_pinned(seed, norm, gamma_hex, theta_hex):
    data, resolution = _pinned_instance(seed)
    res = grid_max_margin(NormSpec(norm), data, resolution)
    assert res.gamma_star.hex() == gamma_hex
    assert [float(v).hex() for v in res.theta_star.blocks[0]] == theta_hex


class TestCertifyKKT:
    def test_oracle_direction_certifies(self):
        res = grid_max_margin(NormSpec.l2(), SYMMETRIC_PAIR)
        model = ModelSpec.linear(2)
        assert certify_kkt(model, res.theta_star, SYMMETRIC_PAIR, NormSpec.l2(),
                           tol_eps=1e-6, tol_delta=1e-6)

    def test_single_example_scaled_input(self):
        data = Points([[1.0, 0.0]], [1.0])
        theta = ParamVector.of(np.array([3.0, 0.0]))
        assert certify_kkt(ModelSpec.linear(2), theta, data, NormSpec.l2(),
                           tol_eps=1e-8, tol_delta=1e-8)

    def test_non_stationary_direction_fails(self):
        theta = ParamVector.of(np.array([0.7, 0.7]))  # separates but misaligned
        assert not certify_kkt(ModelSpec.linear(2), theta, SYMMETRIC_PAIR,
                               NormSpec.l2(), tol_eps=1e-6, tol_delta=1e-6)

    def test_not_separated_propagates(self):
        theta = ParamVector.of(np.array([0.0, 1.0]))
        with pytest.raises(NotSeparatedError):
            certify_kkt(ModelSpec.linear(2), theta, SYMMETRIC_PAIR,
                        NormSpec.l2(), tol_eps=1e-6, tol_delta=1e-6)


def test_oracle_imports_only_errors_norms_and_params():
    """The ground truth stays independent of the code it checks: no
    diagnostics, losses, models or optimizers."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else
                            [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom) else
                     [alias.name for alias in node.names])
            imported.update(name for name in names
                            if name.split(".")[0] == "steepdesc")
    assert imported <= {"errors", "norms", "params"}, imported
