import ast
from pathlib import Path

import numpy as np
import pytest

from steepdesc import oracle
from steepdesc.diagnostics import kkt_residuals, margin_report
from steepdesc.errors import NotSeparatedError
from steepdesc.losses import LossSpec, evaluate
from steepdesc.models import ModelSpec
from steepdesc.norms import NormSpec, norm_value
from steepdesc.oracle import grid_max_margin
from steepdesc.params import ParamVector


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

    def test_grid_points_count_the_built_candidates(self):
        grids = {"l2": oracle._l2_candidates, "l1": oracle._l1_candidates,
                 "linf": oracle._linf_candidates}
        for kind, grid in grids.items():
            for d in (1, 2, 3):
                for resolution in (0.5, 0.05, 0.013):
                    assert (oracle._grid_points(kind, d, resolution)
                            == grid(d, resolution).shape[0]), (kind, d, resolution)

    def test_spectral_alias_matches_l2(self):
        a = grid_max_margin(NormSpec.l2(), SYMMETRIC_PAIR, resolution=1e-2)
        b = grid_max_margin(NormSpec.spectral(), SYMMETRIC_PAIR, resolution=1e-2)
        assert a.gamma_star == b.gamma_star


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
