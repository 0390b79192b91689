"""Acceptance battery: one test per shipping criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -rA`` or ``-s``)
and asserts the criterion at its stated tolerance. Long trajectory
fixtures are shared across criteria 5-8.
"""
import math
import struct
import time

import numpy as np
import pytest

from steepdesc.data import Dataset, TeacherSpec, gen_teacher, load_idx, sample_dataset
from steepdesc.errors import DataFormatError
from steepdesc.harness import (DataSource, RunConfig, emit_csv, run_training)
from steepdesc.losses import LossSpec, loss_subgradient
from steepdesc.models import (COORDINATE_UNIFORM, InitSpec, ModelSpec,
                              forward, network_subgradient)
from steepdesc.norms import (NormSpec, dual_norm_value, norm_subgradient,
                             norm_value, steepest_direction, thin_svd,
                             unit_steepest_direction)
from steepdesc.optimizers import (AdamMethod, OptimizerSpec, OptimizerState,
                                  ShampooMethod, SteepestMethod, step_adam,
                                  step_shampoo, step_steepest)
from steepdesc.oracle import grid_max_margin
from steepdesc.params import ParamVector
from steepdesc.rng import Xoshiro256pp

GD, CD, SD = "GD", "CD", "SD"
ALGO_NORMS = {GD: NormSpec.l2, CD: NormSpec.l1, SD: NormSpec.linf}


def report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)


def twenty_point_set(seed=20):
    """19 clustered points and one much closer to the decision boundary.

    The late-crossing point keeps the first separated margin small, which
    exercises the feasible rescaling where it matters.
    """
    rng = Xoshiro256pp(seed)
    X, y = [], []
    for s in (1.0, -1.0):
        for _ in range(10 if s < 0 else 9):
            X.append([s * 1.0 + 0.08 * rng.uniform_in(-1.0, 1.0),
                      s * 0.5 + 0.08 * rng.uniform_in(-1.0, 1.0)])
            y.append(s)
    X.append([0.01, 0.005])
    y.append(1.0)
    return Dataset(np.array(X), np.array(y))


def run_on(train, norm, normalized, eta, steps, init_scale, log_every,
           init_seed=11, scheme="fan_in_uniform", width=32, d=2):
    config = RunConfig(
        model=ModelSpec.two_layer_relu(d, width),
        init=InitSpec(scale=init_scale, scheme=scheme, seed=init_seed),
        loss=LossSpec.exponential(),
        optimizer=OptimizerSpec(SteepestMethod(norm, normalized=normalized),
                                step_size=eta),
        data=DataSource(kind="dataset", dataset_path="unused"),
        epochs=steps, log_every=log_every,
        diagnostics_norm=norm, seed=0)
    return run_training(config, train=train)


@pytest.fixture(scope="module")
def raw_runs():
    """Criterion-5 runs: raw GD/CD/SD, eta = 1e-3, 5e4 steps."""
    train = twenty_point_set()
    out = {}
    for name in (GD, CD, SD):
        start = time.time()
        out[name] = run_on(train, ALGO_NORMS[name](), False, 1e-3, 50_000,
                           init_scale=0.02, log_every=500)
        out[name].elapsed = time.time() - start
    return out


@pytest.fixture(scope="module")
def normalized_runs():
    """Criterion-8 runs: normalized GD/CD/SD on the same instance."""
    train = twenty_point_set()
    out = {}
    for name in (GD, CD, SD):
        out[name] = run_on(train, ALGO_NORMS[name](), True, 1e-3, 300_000,
                           init_scale=0.05, log_every=500)
    return out


def random_pv(rng):
    blocks = [rng.standard_normal((int(rng.integers(1, 4)), int(rng.integers(1, 4)))),
              rng.standard_normal(int(rng.integers(1, 5)))]
    return ParamVector.of(*blocks)


def test_criterion_01_duality_battery():
    rng = np.random.default_rng(2024)
    start = time.time()
    specs_for = lambda v: [NormSpec.l1(), NormSpec.l2(), NormSpec.linf(),
                           NormSpec.spectral(),
                           NormSpec.modular([NormSpec.spectral(), NormSpec.l2()])]
    for _ in range(1000):
        g = random_pv(rng)
        for spec in specs_for(g):
            dual = dual_norm_value(spec, g)
            d = steepest_direction(spec, g)
            assert d.dot(g) == pytest.approx(-dual * dual, rel=1e-10)
            assert norm_value(spec, d) == pytest.approx(dual, rel=1e-10)
            n = norm_subgradient(spec, g)
            assert n.dot(g) == pytest.approx(norm_value(spec, g), rel=1e-10)
            assert dual_norm_value(spec, n) <= 1.0 + 1e-10
    elapsed = time.time() - start
    report(1, True, f"1000 vectors x 5 specs in {elapsed:.1f}s")
    assert elapsed < 5.0


def test_criterion_02_homogeneity_euler():
    rng = np.random.default_rng(7)
    start = time.time()
    for freeze in (False, True):
        model = ModelSpec.two_layer_relu(4, 8, freeze_second_layer=freeze)
        L = model.homogeneity_degree
        for _ in range(500):
            theta = ParamVector.of(rng.standard_normal((8, 4)),
                                   rng.standard_normal(8),
                                   trainable=(True, not freeze))
            x = rng.standard_normal(4)
            f = forward(model, theta, x)
            h = network_subgradient(model, theta, x)
            assert theta.dot(h) == pytest.approx(L * f, rel=1e-9, abs=1e-12)
            for c in (0.5, 2.0, 10.0):
                fc = forward(model, theta.scaled_trainable(c), x)
                assert fc == pytest.approx(c**L * f, rel=1e-9, abs=1e-12)
    elapsed = time.time() - start
    report(2, True, f"1000 points, L in {{1, 2}}, {elapsed:.1f}s")
    assert elapsed < 5.0


def test_criterion_03_adam_equals_sign_descent():
    rng = np.random.default_rng(3)
    model = ModelSpec.two_layer_relu(3, 6)
    theta = ParamVector.of(0.05 * rng.standard_normal((6, 3)),
                           0.05 * rng.standard_normal(6))
    data = Dataset(rng.standard_normal((8, 3)),
                   np.sign(rng.standard_normal(8)))
    loss = LossSpec.exponential()
    eta = 0.01
    adam = OptimizerSpec(AdamMethod(0.0, 0.0, 0.0), step_size=eta)
    sd = OptimizerSpec(SteepestMethod(NormSpec.linf(), normalized=True),
                       step_size=eta)
    for step in range(100):
        g, _ = loss_subgradient(loss, model, theta, data)
        via_adam, _ = step_adam(theta, g, OptimizerState(), adam)
        via_sd = step_steepest(theta, g, sd)
        dir_adam = (via_adam - theta).flat()
        dir_sd = (via_sd - theta).flat()
        assert np.array_equal(np.sign(dir_adam), np.sign(dir_sd)), f"step {step}"
        theta = via_adam
    report(3, True, "sign-for-sign over 100 steps")


def test_criterion_04_shampoo_first_step():
    rng = np.random.default_rng(4)
    g_mat = rng.standard_normal((8, 6))
    theta = ParamVector.of(np.zeros((8, 6)))
    g = ParamVector.of(g_mat)
    eta = 0.3
    spec = OptimizerSpec(ShampooMethod(0.0), step_size=eta)
    stepped, _ = step_shampoo(theta, g, OptimizerState(), spec)
    u, s, v = thin_svd(g_mat)
    assert s.size == 6  # full rank
    np.testing.assert_allclose(stepped.blocks[0], -eta * (u @ v.T), atol=1e-8)
    unit = unit_steepest_direction(NormSpec.spectral(), g)
    np.testing.assert_allclose(stepped.blocks[0], eta * unit.blocks[0], atol=1e-8)
    report(4, True, "8x6 full-rank gradient")


def test_criterion_05_soft_margin_monotonicity(raw_runs):
    eta = 1e-3
    slack = 1e-6 + 10.0 * eta
    ok = True
    for name, log in raw_runs.items():
        post = [r for r in log.rows if r.t0_flag]
        assert post, f"{name} never separated"
        soft = [r.soft_margin for r in post]
        viol = sum(1 for a, b in zip(soft, soft[1:]) if b < a - slack)
        ok = ok and viol == 0 and log.elapsed < 120.0
        assert viol == 0, f"{name}: {viol} monotonicity violations"
        assert log.elapsed < 120.0, f"{name}: {log.elapsed:.0f}s"
    report(5, ok, "zero violations, raw GD/CD/SD")


def test_criterion_06_sandwich(raw_runs):
    m = 20
    checked = 0
    for name, log in raw_runs.items():
        L = 2
        for row in log.rows:
            if not row.t0_flag or row.q_min <= 0:
                continue
            gamma = row.gamma_algo
            lo = gamma - math.log(m) / row.norm_algo**L
            assert lo - 1e-10 <= row.soft_margin <= gamma + 1e-10, \
                f"{name} step {row.step}"
            checked += 1
    report(6, True, f"{checked} post-separation rows")


def test_criterion_07_finite_time_bounds(raw_runs):
    checked = 0
    for name, log in raw_runs.items():
        for row in log.rows:
            if row.bregman_gap is None:
                continue
            assert row.bregman_gap <= row.bregman_bound + 1e-8, \
                f"{name} step {row.step}"
            assert row.kkt_delta <= row.delta_bound + 1e-8, \
                f"{name} step {row.step}"
            assert row.kkt_delta >= -1e-12
            checked += 1
    report(7, True, f"{checked} logged bounds")


@pytest.mark.parametrize("name", [GD, CD, SD])
def test_criterion_08_alignment_and_residual_decay(normalized_runs, name):
    log = normalized_runs[name]
    post = [r for r in log.rows if r.t0_flag]
    final = log.rows[-1]
    ratio = final.kkt_eps / post[0].kkt_eps
    ok = final.alignment >= 0.99 and ratio <= 0.1
    report(f"8[{name}]", ok,
           f"alignment {final.alignment:.5f}, eps x{ratio:.4f}")
    assert final.alignment >= 0.99, f"{name}: alignment {final.alignment}"
    assert ratio <= 0.1, f"{name}: kkt_eps decayed only x{ratio:.4f}"


def test_criterion_09_linear_oracle_match():
    X = np.array([[1.0, 0.3], [0.6, 0.9], [1.1, -0.2],
                  [-0.8, -0.6], [-1.0, 0.1], [-0.4, -1.0]])
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    train = Dataset(X, y)
    start = time.time()
    ratios = {}
    for name in (GD, CD, SD):
        norm = ALGO_NORMS[name]()
        oracle = grid_max_margin(norm, train, resolution=1e-3)
        config = RunConfig(
            model=ModelSpec.linear(2),
            init=InitSpec(scale=0.01, seed=5),
            loss=LossSpec.exponential(),
            optimizer=OptimizerSpec(SteepestMethod(norm, normalized=True),
                                    step_size=0.05),
            data=DataSource(kind="dataset", dataset_path="unused"),
            epochs=4000, log_every=400,
            diagnostics_norm=norm, seed=0)
        log = run_training(config, train=train)
        ratios[name] = log.rows[-1].gamma_algo / oracle.gamma_star
        assert ratios[name] >= 0.98, f"{name}: {ratios[name]:.4f} of gamma*"
    elapsed = time.time() - start
    report(9, True, ", ".join(f"{n} {r:.4f}" for n, r in ratios.items())
           + f"; {elapsed:.0f}s")
    assert elapsed < 60.0


def test_criterion_10_margin_ordering():
    start = time.time()
    teacher = gen_teacher(TeacherSpec(input_dim=16, width=4,
                                      active_per_neuron=3, seed=3))
    finals = {}
    for seed in (1, 2, 3):
        train = sample_dataset(teacher, 64, seed=100 + seed)
        for name, normalized, scheme in ((GD, False, "fan_in_uniform"),
                                         (CD, True, COORDINATE_UNIFORM),
                                         (SD, True, "fan_in_uniform")):
            log = run_on(train, ALGO_NORMS[name](), normalized, 6e-3, 20_000,
                         init_scale=0.01, log_every=200, init_seed=200 + seed,
                         scheme=scheme, d=16, width=64)
            finals[(seed, name)] = log.rows[-1]
    wins = {"gamma_1": 0, "gamma_2": 0, "gamma_inf": 0}
    expected = {"gamma_1": SD, "gamma_2": GD, "gamma_inf": CD}
    for seed in (1, 2, 3):
        for metric, winner in expected.items():
            best = max((GD, CD, SD),
                       key=lambda n: getattr(finals[(seed, n)], metric))
            wins[metric] += best == winner
    elapsed = time.time() - start
    ok = all(w >= 2 for w in wins.values())
    report(10, ok, f"wins {wins}; {elapsed:.0f}s")
    for metric, count in wins.items():
        assert count >= 2, f"{metric}: expected winner in only {count}/3 seeds"
    assert elapsed < 900.0


def test_criterion_11_reproducibility(tmp_path):
    def one_run(path):
        config = RunConfig(
            model=ModelSpec.two_layer_relu(6, 8),
            init=InitSpec(scale=0.05, seed=0),
            loss=LossSpec.exponential(),
            optimizer=OptimizerSpec(SteepestMethod(NormSpec.l2()),
                                    step_size=0.05),
            data=DataSource(kind="teacher",
                            teacher=TeacherSpec(input_dim=6, width=3,
                                                active_per_neuron=2, seed=4),
                            train_m=16, test_m=8),
            epochs=400, log_every=100,
            diagnostics_norm=NormSpec.l2(), seed=9)
        emit_csv(run_training(config), path)
        return path.read_bytes()

    a = one_run(tmp_path / "a.csv")
    b = one_run(tmp_path / "b.csv")
    ok = a == b
    report(11, ok, f"{len(a)} CSV bytes")
    assert ok


def test_criterion_12_idx_ingestion(tmp_path):
    labels = (3, 6, 3, 6)
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 2051, 4, 28, 28))
        f.write(pixels.tobytes())
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 2049, 4))
        f.write(bytes(labels))
    ds = load_idx(img, lab, 3, 6, 4)
    assert ds.d == 784
    np.testing.assert_array_equal(ds.y, [1.0, -1.0, 1.0, -1.0])
    assert 0.0 <= ds.X.min() and ds.X.max() <= 1.0

    corrupt = tmp_path / "bad.idx"
    data = bytearray(img.read_bytes())
    data[0:4] = struct.pack(">I", 1234)
    corrupt.write_bytes(bytes(data))
    with pytest.raises(DataFormatError):
        load_idx(corrupt, lab, 3, 6, 4)
    report(12, True, "fixture parsed, corrupt magic rejected")
