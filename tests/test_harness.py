import xml.etree.ElementTree as ET

import numpy as np
import pytest

from steepdesc.data import Dataset, save_dataset
from steepdesc.errors import ConfigError, DivergenceError
from steepdesc.harness import (ACCURACY_CHUNK, CSV_COLUMNS, DataSource,
                               RunConfig, config_from_values, emit_csv,
                               emit_svg, evaluate_accuracy, parse_norm,
                               read_flat_config, run_training)
from steepdesc.losses import LossSpec, output_margins
from steepdesc.models import InitSpec, ModelSpec
from steepdesc.norms import NormSpec
from steepdesc.optimizers import OptimizerSpec, SteepestMethod
from steepdesc.params import ParamVector


def four_point_set():
    X = np.array([[1.0, 0.2], [0.8, -0.3], [-1.0, 0.1], [-0.7, 0.4]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    return Dataset(X, y)


def toy_config(eta=0.05, epochs=5000, log_every=250, **overrides):
    base = dict(
        model=ModelSpec.two_layer_relu(2, 8),
        init=InitSpec(scale=0.05, seed=3),
        loss=LossSpec.exponential(),
        optimizer=OptimizerSpec(SteepestMethod(NormSpec.l2()), step_size=eta),
        data=DataSource(kind="dataset", dataset_path="unused"),
        epochs=epochs, log_every=log_every,
        diagnostics_norms=(NormSpec.l2(),), seed=1)
    base.update(overrides)
    return RunConfig(**base)


class TestRunTraining:
    def test_separates_four_point_set(self):
        log = run_training(toy_config(), train=four_point_set())
        assert log.t0_step is not None
        assert log.rows[-1].train_acc == 1.0
        assert log.rows[-1].t0_flag
        assert not log.warnings

    def test_deterministic_csv_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_training(toy_config(), train=four_point_set()), a)
        emit_csv(run_training(toy_config(), train=four_point_set()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_huge_step_size_diverges(self):
        # contradictory labels on a linear model keep the gradient alive,
        # so an enormous step size oscillates with exploding magnitude
        clash = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]),
                        np.array([1.0, -1.0]))
        config = toy_config(eta=1e3, epochs=500, log_every=50,
                            model=ModelSpec.linear(2))
        with pytest.raises(DivergenceError):
            run_training(config, train=clash)

    def test_kkt_fields_appear_after_t0(self):
        log = run_training(toy_config(), train=four_point_set())
        pre = [r for r in log.rows if not r.t0_flag]
        post = [r for r in log.rows if r.t0_flag]
        assert all(r.kkt_eps is None for r in pre)
        assert all(r.kkt_eps is not None for r in post)
        assert all(r.bregman_bound is not None for r in post)

    def test_switch_changes_updates_at_separation(self):
        cd = OptimizerSpec(SteepestMethod(NormSpec.l1()), step_size=0.05)
        gd = OptimizerSpec(SteepestMethod(NormSpec.l2()), step_size=0.05,
                           switch_to=cd)
        log = run_training(toy_config(optimizer=gd), train=four_point_set())
        assert log.t0_step is not None
        # after the switch, coordinate descent moves one coordinate per
        # step, so between logged steps the l1 norm changes much more
        # slowly than gradient descent would
        no_switch = run_training(toy_config(), train=four_point_set())
        assert log.rows[-1].norm_l1 < no_switch.rows[-1].norm_l1

    def test_outputs_written(self, tmp_path):
        config = toy_config(epochs=500, log_every=100,
                            output_dir=str(tmp_path / "out"))
        run_training(config, train=four_point_set())
        assert (tmp_path / "out" / "run.csv").exists()
        assert (tmp_path / "out" / "final.ckpt").exists()

    def test_strict_mode_passes_clean_run(self):
        log = run_training(toy_config(strict=True), train=four_point_set())
        assert not log.warnings

    def test_invariant_battery_flags_violations(self):
        from steepdesc.harness import check_invariants
        config = toy_config()
        log = run_training(config, train=four_point_set())
        post = [r for r in log.rows if r.t0_flag]
        assert len(post) >= 2
        post[-1].soft_margin = post[0].soft_margin - 1.0  # fabricated drop
        post[-1].log_loss = post[-2].log_loss + 1.0       # fabricated rise
        warnings = check_invariants(config, log)
        assert any("soft margin fell" in w for w in warnings)
        assert any("did not decrease" in w for w in warnings)


class TestEvaluateAccuracy:
    def test_all_correct(self):
        model = ModelSpec.linear(2)
        theta = ParamVector.of(np.array([1.0, 0.0]))
        data = four_point_set()
        assert evaluate_accuracy(model, theta, data) == 1.0

    def test_all_flipped(self):
        model = ModelSpec.linear(2)
        theta = ParamVector.of(np.array([-1.0, 0.0]))
        assert evaluate_accuracy(model, theta, four_point_set()) == 0.0

    def test_exact_zero_counts_as_error(self):
        model = ModelSpec.linear(2)
        theta = ParamVector.of(np.array([0.0, 0.0]))
        assert evaluate_accuracy(model, theta, four_point_set()) == 0.0

    def test_half_and_half(self):
        model = ModelSpec.linear(2)
        theta = ParamVector.of(np.array([0.0, 1.0]))
        data = Dataset(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 1.0]))
        assert evaluate_accuracy(model, theta, data) == 0.5

    def test_chunked_equals_one_product(self):
        rng = np.random.default_rng(8)
        m = 2 * ACCURACY_CHUNK + 37
        model = ModelSpec.two_layer_relu(4, 3)
        theta = ParamVector.of(rng.standard_normal((3, 4)), rng.standard_normal(3))
        data = Dataset(rng.standard_normal((m, 4)), np.sign(rng.standard_normal(m)))
        whole = float((output_margins(model, theta, data) > 0.0).mean())
        assert evaluate_accuracy(model, theta, data) == whole


class TestEmitCsv:
    def test_header_order(self, tmp_path):
        log = run_training(toy_config(epochs=500, log_every=100),
                           train=four_point_set())
        path = tmp_path / "run.csv"
        emit_csv(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0].startswith("step,log_loss,train_acc,")
        assert len(lines) == len(log.rows) + 1

    def test_optional_fields_blank_before_t0(self, tmp_path):
        log = run_training(toy_config(epochs=500, log_every=100),
                           train=four_point_set())
        path = tmp_path / "run.csv"
        emit_csv(log, path)
        first = path.read_text().splitlines()[1].split(",")
        cols = dict(zip(CSV_COLUMNS, first))
        assert cols["kkt_eps"] == ""
        assert cols["test_acc"] == ""
        assert cols["t0_flag"] == "0"


class TestEmitSvg:
    def test_well_formed_with_one_polyline_per_metric(self, tmp_path):
        log = run_training(toy_config(epochs=1000, log_every=100),
                           train=four_point_set())
        path = tmp_path / "run.svg"
        emit_svg(log, ["gamma_2", "soft_margin"], {}, path)
        root = ET.fromstring(path.read_text())
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_log_axis_skips_nonpositive_with_warning(self, tmp_path):
        log = run_training(toy_config(epochs=1000, log_every=100),
                           train=four_point_set())
        with pytest.warns(UserWarning, match="nonpositive"):
            text = emit_svg(log, ["log_loss"], {"y": "log"})
        ET.fromstring(text)

    def test_empty_log_rejected(self):
        from steepdesc.harness import RunLog
        with pytest.raises(ValueError):
            emit_svg(RunLog(), ["gamma_2"], {})


class TestConfigParsing:
    def test_flat_file_round_trip(self, tmp_path):
        text = """
# toy run
model_kind = two_layer_relu
input_dim = 2
width = 8
init_scale = 0.05
loss = exponential
optimizer = steepest
norm = linf
normalized = true
step_size = 0.01
data_kind = teacher
teacher_k = 4
teacher_active = 2
train_m = 16
epochs = 200
log_every = 50
diagnostics_norms = linf,l2
seed = 7
"""
        path = tmp_path / "run.cfg"
        path.write_text(text)
        values = read_flat_config(path)
        config = config_from_values(values)
        assert config.model.width == 8
        assert config.optimizer.method.norm.kind == "linf"
        assert config.optimizer.method.normalized is True
        assert config.diagnostics_norms[0].kind == "linf"
        assert config.seed == 7

    def test_switch_rule_parsed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("""
input_dim = 2
width = 4
teacher_active = 2
train_m = 8
epochs = 100
norm = l2
switch_to = steepest
switch_norm = l1
""")
        config = config_from_values(read_flat_config(path))
        assert config.optimizer.switch_to is not None
        assert config.optimizer.switch_to.method.norm.kind == "l1"

    def test_missing_key_clear_error(self):
        with pytest.raises(ConfigError, match="input_dim"):
            config_from_values({"epochs": 10})

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs 100\n")
        with pytest.raises(ConfigError, match="key = value"):
            read_flat_config(path)

    def test_parse_norm_modular(self):
        spec = parse_norm("modular:spectral,l2")
        assert spec.kind == "modular_max"
        assert [b.kind for b in spec.block_norms] == ["spectral", "l2"]

    def test_log_every_validation(self):
        with pytest.raises(ConfigError):
            toy_config(epochs=10, log_every=20)


class TestDataSourceResolution:
    def test_teacher_source(self):
        from steepdesc.harness import resolve_data
        from steepdesc.data import TeacherSpec
        config = toy_config(data=DataSource(
            kind="teacher",
            teacher=TeacherSpec(input_dim=2, width=3, active_per_neuron=2, seed=4),
            train_m=12, test_m=6))
        train, test = resolve_data(config)
        assert train.m == 12 and test.m == 6
        assert train.d == 2

    def test_stpd_source(self, tmp_path):
        from steepdesc.harness import resolve_data
        path = tmp_path / "toy.stpd"
        save_dataset(four_point_set(), path)
        config = toy_config(data=DataSource(kind="dataset",
                                            dataset_path=str(path)))
        train, test = resolve_data(config)
        assert train.m == 4 and test is None
