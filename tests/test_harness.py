import re
import struct
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steepdesc.cli import cli_main
from steepdesc.data import Dataset, TeacherSpec, save_dataset
from steepdesc.errors import (ConfigError, DivergenceError, InvariantViolation,
                              ShapeMismatchError)
from steepdesc.harness import (_KEYS, _TABLE, ACCURACY_CHUNK, CONFIG_KEYS,
                               CSV_COLUMNS, DataSource, LogRow, RunConfig,
                               _flag, _integer, _real, _text, check_invariants,
                               config_from_values, emit_csv, emit_svg,
                               evaluate_accuracy, load_config, parse_norm,
                               read_flat_config, run_training)
from steepdesc.losses import LossSpec, output_margins
from steepdesc.models import InitSpec, ModelSpec
from steepdesc.norms import NormSpec
from steepdesc.optimizers import OptimizerSpec, SteepestMethod
from steepdesc.params import ParamVector

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


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
        diagnostics_norm=NormSpec.l2(), seed=1)
    base.update(overrides)
    return RunConfig(**base)


class TestRunTraining:
    def test_frozen_run_evaluates_only_logged_steps(self, monkeypatch):
        import steepdesc.harness as harness
        calls = []
        evaluate = harness.evaluate
        monkeypatch.setattr(harness, "evaluate",
                            lambda *a: calls.append(1) or evaluate(*a))
        values = read_flat_config(CONFIGS / "desk_sd.cfg")
        values.update(epochs=1000, log_every=50, test_m=0, output_dir="")
        log = run_training(config_from_values(values))
        assert log.freeze_step is not None and log.freeze_step < 1000
        logged_after = sum(r.step > log.freeze_step for r in log.rows)
        assert logged_after > 0
        assert len(calls) == log.freeze_step + 1 + logged_after
        assert [r.frozen for r in log.rows] == [r.step > log.freeze_step
                                                for r in log.rows]

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

    def test_an_overflowing_gradient_scale_diverges_silently(self):
        # a large init puts a margin below -709, so the raw step's
        # exp(log_scale) overflows: the step goes non-finite without a
        # RuntimeWarning and the next step stops the run
        mirror = Dataset(np.array([[1.0, 2.0], [-1.0, -2.0]]), np.array([1.0, 1.0]))
        config = toy_config(epochs=50, log_every=10, model=ModelSpec.linear(2),
                            init=InitSpec(scale=1e4, seed=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="step 1: non-finite parameters"):
                run_training(config, train=mirror)

    def test_finite_parameters_with_overflowing_margins_diverge(self):
        # at init scale 1e300 every parameter is finite, but the output
        # layer's product overflows, so step 0's margins are not
        config = toy_config(epochs=5, log_every=1, init=InitSpec(scale=1e300, seed=3))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="^run diverged at step 0: "
                                                      "non-finite margins$"):
                run_training(config, train=four_point_set())

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
        config = toy_config()
        log = run_training(config, train=four_point_set())
        prev, row = [r for r in log.rows if r.t0_flag][-2:]
        row.soft_margin = prev.soft_margin - 1.0   # fabricated drop
        row.log_loss = prev.log_loss + 1.0         # fabricated rise
        warnings = check_invariants(config, row, prev, 0.05, 4)
        assert any("soft margin fell" in w for w in warnings)
        assert any("did not decrease" in w for w in warnings)

    def test_each_row_is_checked_with_the_step_size_that_stepped_to_it(
            self, monkeypatch):
        """Rows from t0 on were stepped to by the ``switch_to`` spec, the
        rows before it by the main one; every row gets the train set's size."""
        import steepdesc.harness as harness
        seen = {}
        monkeypatch.setattr(harness, "check_invariants", lambda config, row, prev,
                            eta, m: seen.update({row.step: (eta, m)}) or [])
        switch = OptimizerSpec(SteepestMethod(NormSpec.l2()), step_size=0.01)
        config = toy_config(optimizer=OptimizerSpec(
            SteepestMethod(NormSpec.l2()), step_size=0.05, switch_to=switch))
        log = run_training(config, train=four_point_set())
        assert 0 < log.t0_step < config.epochs
        assert seen == {r.step: (0.01 if r.t0_flag else 0.05, 4) for r in log.rows}


def _post_separation_row(step, soft_margin, log_loss, norm):
    """A logged post-separation row of a linear run on four points that
    meets every invariant but the soft margin's."""
    return LogRow(step=step, log_loss=log_loss, train_acc=1.0, test_acc=None,
                  q_min=norm, gamma_1=1.0, gamma_2=1.0, gamma_inf=1.0,
                  gamma_sigma=1.0, soft_margin=soft_margin, alignment=0.9,
                  kkt_eps=None, kkt_delta=None, bregman_gap=None,
                  bregman_bound=None, t0_flag=True, gamma_algo=1.0,
                  norm_algo=norm)


class TestCheckInvariants:
    @pytest.mark.parametrize("eta, warned", [(1e-4, True), (0.1, False)],
                             ids=["switched to 1e-4", "no switch"])
    def test_soft_margin_slack_is_that_of_the_switched_to_step_size(
            self, eta, warned):
        """A soft-margin drop of 0.5 is within 10 * 0.1 but not within
        10 * 1e-4, the step size a switch to 1e-4 steps the interval with."""
        rows = [_post_separation_row(0, 1.0, -1.0, 1.0),
                _post_separation_row(10, 0.5, -2.0, 2.0)]
        assert check_invariants(toy_config(model=ModelSpec.linear(2)), rows[1],
                                rows[0], eta, 4) == (
            ["step 10: soft margin fell 1.0 -> 0.5"] if warned else [])

    @pytest.mark.parametrize("fields, finding", [
        ({"alignment": 1.0 + 1e-9}, f"alignment {1.0 + 1e-9} > 1"),
        ({"alignment": 1.0 + 5e-11}, None),
        ({"bregman_gap": 0.5, "bregman_bound": 0.25},
         "Bregman gap 0.5 exceeds bound 0.25"),
        ({"bregman_gap": 0.25 + 5e-9, "bregman_bound": 0.25}, None),
        ({"kkt_delta": -1e-9}, "negative complementarity -1e-09"),
        ({"kkt_delta": -5e-13}, None),
        ({"kkt_delta": 0.5, "delta_bound": 0.25}, "delta 0.5 exceeds bound 0.25"),
        ({"kkt_delta": 0.25 + 5e-9, "delta_bound": 0.25}, None),
    ], ids=["alignment over 1", "alignment within 1e-10", "Bregman gap over bound",
            "Bregman gap within 1e-8", "negative delta", "delta within -1e-12",
            "delta over bound", "delta within 1e-8"])
    def test_each_row_check_names_its_step(self, fields, finding):
        """The alignment cap, the Bregman and delta bounds and nonnegative
        complementarity, each past its tolerance on the second of two rows
        that otherwise meet every invariant, and each within it."""
        rows = [_post_separation_row(0, 1.0, -1.0, 1.0),
                _post_separation_row(10, 1.0, -2.0, 2.0)]
        for name, value in fields.items():
            setattr(rows[1], name, value)
        assert check_invariants(toy_config(model=ModelSpec.linear(2)), rows[1],
                                rows[0], 0.1, 4) == (
            [] if finding is None else [f"step 10: {finding}"])

    @pytest.mark.parametrize("strict", [True, False])
    def test_strict_run_raises_on_a_finding_before_writing(self, strict, tmp_path,
                                                           monkeypatch):
        """A strict run raises with the first failing row's findings; any
        other run lists every row's findings, in step order, and writes."""
        import steepdesc.harness as harness
        findings = {5: ["step 5: b", "step 5: c"], 15: ["step 15: d"]}
        monkeypatch.setattr(harness, "check_invariants", lambda config, row, prev,
                            eta, m: findings.get(row.step, []))
        config = toy_config(epochs=20, log_every=5, strict=strict,
                            output_dir=str(tmp_path / "out"))
        if strict:
            with pytest.raises(InvariantViolation, match="^step 5: b; step 5: c$"):
                run_training(config, train=four_point_set())
            assert not (tmp_path / "out").exists()
        else:
            log = run_training(config, train=four_point_set())
            assert log.warnings == ["step 5: b", "step 5: c", "step 15: d"]
            assert (tmp_path / "out" / "run.csv").exists()

    def test_strict_run_stops_at_the_first_failing_row(self, tmp_path, monkeypatch):
        """An alignment over 1 reported at step 1,000 of 5,000 fails that
        row: the run raises naming it, evaluates no later step and writes
        nothing."""
        import steepdesc.harness as harness
        evaluate, report, evaluated = harness.evaluate, harness.margin_report, []
        monkeypatch.setattr(harness, "evaluate",
                            lambda *a: evaluated.append(1) or evaluate(*a))

        def margin_report(ev, norm):
            rep = report(ev, norm)
            return replace(rep, alignment=1.5) if len(evaluated) == 1001 else rep

        monkeypatch.setattr(harness, "margin_report", margin_report)
        config = toy_config(strict=True, output_dir=str(tmp_path / "out"))
        with pytest.raises(InvariantViolation, match="^step 1000: alignment 1.5 > 1"):
            run_training(config, train=four_point_set())
        assert len(evaluated) == 1001       # steps 0 to 1,000
        assert not (tmp_path / "out").exists()


CHUNKED_M = 2 * ACCURACY_CHUNK + 37     # test points: two full default blocks and a part


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

    @pytest.mark.parametrize("rows", [1, 7, CHUNKED_M - 1, CHUNKED_M,
                                      CHUNKED_M + 1, None],
                             ids=["1 row", "7 rows", "m-1 rows", "m rows",
                                  "m+1 rows", "no buffer"])
    def test_chunked_equals_one_product(self, rows):
        """Any caller buffer, or the default blocks of ACCURACY_CHUNK rows,
        scores as one product over all m rows."""
        rng = np.random.default_rng(8)
        m = CHUNKED_M
        model = ModelSpec.two_layer_relu(4, 3)
        theta = ParamVector.of(rng.standard_normal((3, 4)), rng.standard_normal(3))
        data = Dataset(rng.standard_normal((m, 4)), np.sign(rng.standard_normal(m)))
        whole = float((output_margins(model, theta, data) > 0.0).mean())
        hidden = None if rows is None else np.empty((rows, 3))
        assert evaluate_accuracy(model, theta, data, hidden) == whole


class TestTestAccuracyBuffer:
    """The logged row scores the test set through the run's (m, width)
    step buffer, which ``evaluate`` leaves holding nothing it reads later."""

    @staticmethod
    def teacher_sets(m, test_m, d=8):
        rng = np.random.default_rng(21)
        w = rng.standard_normal(d)
        X, X_test = rng.standard_normal((m, d)), rng.standard_normal((test_m, d))
        return (Dataset(X, np.where(X @ w > 0, 1.0, -1.0)),
                Dataset(X_test, np.where(X_test @ w > 0, 1.0, -1.0)))

    def test_no_evaluation_is_a_view_of_the_run_buffer(self, monkeypatch):
        import steepdesc.harness as harness
        seen = []
        evaluate = harness.evaluate

        def spy(loss, model, theta, data, hidden):
            ev = evaluate(loss, model, theta, data, hidden)
            seen.append((ev, hidden))
            return ev

        monkeypatch.setattr(harness, "evaluate", spy)
        train, test = self.teacher_sets(16, 100)
        config = toy_config(model=ModelSpec.two_layer_relu(8, 32), epochs=200,
                            log_every=50)
        log = run_training(config, train=train, test=test)
        assert len(seen) == 201 and len({id(h) for _, h in seen}) == 1
        for ev, hidden in seen:
            g_hat = ev.subgradient[0]
            for array in (ev.q, ev.logw, g_hat.buffer):
                assert not np.shares_memory(array, hidden)
        assert log.rows[-1].test_acc == evaluate_accuracy(
            config.model, log.final_theta, test)

    def test_a_test_set_allocates_no_block_of_its_own(self):
        """k' = 512: one ACCURACY_CHUNK block would be 4 MiB."""
        bound = 1 << 20
        train, test = self.teacher_sets(64, 4096)
        config = toy_config(model=ModelSpec.two_layer_relu(8, 512), epochs=4,
                            log_every=2)
        peaks = []
        tracemalloc.start()
        try:
            for test_set in (None, test):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run_training(config, train=train, test=test_set)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < bound, peaks


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
        emit_svg(log, ["gamma_2", "soft_margin"], path=path)
        root = ET.fromstring(path.read_text())
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_log_axis_skips_nonpositive_with_warning(self, tmp_path):
        log = run_training(toy_config(epochs=1000, log_every=100),
                           train=four_point_set())
        with pytest.warns(UserWarning, match="nonpositive"):
            text = emit_svg(log, ["log_loss"], log_y=True)
        ET.fromstring(text)

    def test_empty_log_rejected(self):
        from steepdesc.harness import RunLog
        with pytest.raises(ConfigError, match="empty run log"):
            emit_svg(RunLog(), ["gamma_2"])


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
diagnostics_norms = linf
seed = 7
"""
        path = tmp_path / "run.cfg"
        path.write_text(text)
        values = read_flat_config(path)
        config = config_from_values(values)
        assert config.model.width == 8
        assert config.optimizer.method.norm.kind == "linf"
        assert config.optimizer.method.normalized is True
        assert config.diagnostics_norm.kind == "linf"
        assert config.seed == 7

    def test_one_diagnostics_norm(self):
        values = {"input_dim": 2, "width": 4, "teacher_active": 2,
                  "train_m": 8, "epochs": 100,
                  "diagnostics_norms": "modular:l2,l1"}
        norm = config_from_values(values).diagnostics_norm
        assert norm == NormSpec.modular([NormSpec.l2(), NormSpec.l1()])
        with pytest.raises(ConfigError):
            config_from_values({**values, "diagnostics_norms": "l2,l1"})

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

    def test_unknown_keys_rejected(self):
        values = {"input_dim": 2, "width": 4, "teacher_active": 2,
                  "train_m": 8, "epochs": 100}
        config_from_values(values)
        with pytest.raises(ConfigError, match="normalised, step_sise"):
            config_from_values({**values, "normalised": True, "step_sise": 5.0})

    def test_config_keys_are_the_readme_keys(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = next(part for part in readme.split("\n\n")
                       if part.startswith("- model:"))
        # drop the value lists and notes in parentheses, keep the key names
        bullets = re.sub(r"\([^)]*\)", "", section).split("\n- ")
        listed = {bullet.split(":")[0].lstrip("- ").strip():
                  set(re.findall(r"`([a-z_0-9]+)`", bullet)) for bullet in bullets}
        assert listed == {group: set(keys) for group, keys in _TABLE.items()}
        assert set().union(*listed.values()) == CONFIG_KEYS

    @pytest.mark.parametrize("name", sorted(p.stem for p in
                                            (ROOT / "configs").glob("*.cfg")))
    def test_shipped_configs_load(self, name):
        values = read_flat_config(CONFIGS / f"{name}.cfg")
        config_from_values(values)
        # the keys the benchmark appends to a shipped config
        config_from_values({**values, "epochs": 500, "log_every": 1,
                            "test_m": 0, "switch_to": "shampoo", "seed": 2,
                            "output_dir": "out"})

    def test_output_dir_is_the_argument_then_the_key(self, tmp_path, monkeypatch):
        """``train --output-dir`` wins over the key, which keeps its text as
        written; the environment is not read."""
        monkeypatch.setenv("STEEPDESC_OUTPUT_DIR", "envdir")
        monkeypatch.chdir(tmp_path)
        save_dataset(four_point_set(), tmp_path / "toy.stpd")
        (tmp_path / "run.cfg").write_text(
            "model_kind = linear\ninput_dim = 2\ndata_kind = dataset\n"
            "dataset_path = toy.stpd\nepochs = 20\noutput_dir = 007\n")
        train = ["train", "--config", "run.cfg"]
        assert cli_main([*train, "--output-dir", "arg"]) == 0
        assert cli_main(train) == 0
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == ["007", "arg"]
        assert (tmp_path / "arg" / "run.csv").exists()
        assert (tmp_path / "007" / "run.csv").exists()
        assert config_from_values(MINIMAL_VALUES).output_dir is None

    def test_path_keys_keep_their_text(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL_CONFIG + "output_dir = 007\ndataset_path = 1e3\n")
        values = read_flat_config(path)
        assert values["output_dir"] == "007" and values["dataset_path"] == "1e3"
        del values["train_m"]                  # a dataset file is the whole train set
        config = config_from_values({**values, "data_kind": "dataset"})
        assert config.output_dir == "007" and config.data.dataset_path == "1e3"

    def test_choice_keys_take_their_names_in_any_case(self):
        config = config_from_values({**MINIMAL_VALUES, "model_kind": "LINEAR",
                                     "loss": "Logistic",
                                     "init_scheme": "Coordinate_Uniform"})
        assert config.model == ModelSpec.linear(2)
        assert config.loss == LossSpec.logistic()
        assert config.init.scheme == "coordinate_uniform"

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_every_key_present_is_validated_used_or_not(self, key):
        """A malformed value of a key is an error even where the config's
        branch (a linear model on a dataset file, steepest descent, no
        switch) does not read it."""
        base = {"model_kind": "linear", "input_dim": 2, "data_kind": "dataset",
                "dataset_path": "x.stpd", "epochs": 10}
        config_from_values(base)
        bad = {_integer: 2.5, _real: "abc", _flag: 7, _text: True}
        with pytest.raises(ConfigError):
            config_from_values({**base, key: bad.get(_KEYS[key][0], "nosuch")})

    def test_missing_key_clear_error(self):
        with pytest.raises(ConfigError, match="input_dim"):
            config_from_values({"epochs": 10})

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.9), ("teacher_k", 3.7), ("data_seed", True),
        ("width", False), ("log_every", 0.5), ("seed", -1.5)])
    def test_integer_key_rejects_a_fraction_or_a_bool(self, key, value):
        """A fractional or boolean value of an integer key is an error, not
        truncated to an int."""
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            config_from_values({**MINIMAL_VALUES, key: value})

    def test_integer_key_accepts_an_integral_float(self, tmp_path):
        """An integer is read exactly, above 2^53 too, and an integral float
        as its integer."""
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL_CONFIG + "epochs = 1e3\ndata_seed = 7.0\n"
                        "seed = 9007199254740993\ninit_seed = 1_000\n")
        config = config_from_values(read_flat_config(path))
        assert config.epochs == 1000 and type(config.epochs) is int
        assert config.data.data_seed == 7 and type(config.data.data_seed) is int
        assert config.seed == 2**53 + 1 and config.init.seed == 1000

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


MINIMAL_VALUES = {"input_dim": 2, "width": 4, "teacher_active": 2,
                  "train_m": 8, "epochs": 100}
MINIMAL_CONFIG = "".join(f"{k} = {v}\n" for k, v in MINIMAL_VALUES.items())
VALUE = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "0", "-1", "2",
                     "0.5", "true", "false", '"2"', "", "9" * 30, "l2",
                     "modular:spectral,l2", "adam", "shampoo", "linear",
                     "logistic", "teacher", "dataset", "idx",
                     "coordinate_uniform"]),
    st.integers().map(str), st.floats().map(repr), st.text(max_size=12))
LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(sorted(CONFIG_KEYS)), VALUE),
    st.text(max_size=30))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", MINIMAL_CONFIG]), st.lists(LINE, max_size=8))
def test_any_config_text_gives_a_config_or_a_config_error(tmp_path_factory,
                                                          head, lines):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(head + "\n".join(lines), encoding="utf-8")
    try:
        config = config_from_values(read_flat_config(path))
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


class TestDataSourceResolution:
    def test_teacher_source(self):
        from steepdesc.harness import resolve_data
        config = toy_config(data=DataSource(
            kind="teacher",
            teacher=TeacherSpec(input_dim=2, width=3, active_per_neuron=2, seed=4),
            train_m=12, test_m=6))
        train, test = resolve_data(config)
        assert train.m == 12 and test.m == 6
        assert train.d == 2

    def test_idx_source_through_a_config(self, tmp_path):
        """data_kind = idx keeps the first train_m images of digit_a (+1) or
        digit_b (-1), in file order, and a linear run on them trains."""
        from steepdesc.harness import resolve_data
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        pixels = np.arange(24, dtype=np.uint8).reshape(6, 2, 2) * 10
        images.write_bytes(struct.pack(">IIII", 2051, 6, 2, 2) + pixels.tobytes())
        labels.write_bytes(struct.pack(">II", 2049, 6) + bytes([3, 6, 1, 3, 6, 6]))
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(f"""model_kind = linear
input_dim = 4
data_kind = idx
idx_images = {images}
idx_labels = {labels}
train_m = 4
digit_a = 3
digit_b = 6
epochs = 20
log_every = 10
output_dir = {tmp_path / "out"}
""")
        train, test = resolve_data(load_config(cfg))
        assert test is None
        assert train.X.tobytes() == (pixels.reshape(6, 4)[[0, 1, 3, 4]]
                                     / 255.0).tobytes()
        assert train.y.tolist() == [1.0, -1.0, 1.0, -1.0]
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "run.csv").exists()

    @pytest.mark.parametrize("kind", ["teacher", "dataset", "idx"])
    def test_one_class_digits_rejected_on_every_kind(self, kind):
        with pytest.raises(ConfigError, match="both 5: idx data needs two classes"):
            DataSource(kind=kind, teacher=TeacherSpec(2, 3, 2),
                       train_m=4, dataset_path="d.stpd", idx_images="i.idx",
                       idx_labels="l.idx", digit_a=5, digit_b=5)

    @pytest.mark.parametrize("kind", ["dataset", "idx"])
    def test_test_set_needs_teacher_data(self, kind):
        """Only a teacher draws a test set: test_m > 0 on a dataset file or
        IDX files would leave test_acc empty."""
        with pytest.raises(ConfigError, match=f"test_m > 0 needs teacher data: "
                                              f"{kind} data has no test set"):
            DataSource(kind=kind, train_m=4, test_m=3, dataset_path="d.stpd",
                       idx_images="i.idx", idx_labels="l.idx")

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "csv"}, "unknown data kind 'csv'"),
        ({"kind": "teacher", "train_m": 4},
         "teacher data needs a TeacherSpec and train_m >= 1"),
        ({"kind": "teacher", "teacher": TeacherSpec(2, 3, 2)},
         "teacher data needs a TeacherSpec and train_m >= 1"),
        ({"kind": "dataset"}, "dataset data needs dataset_path"),
        ({"kind": "idx", "idx_labels": "l.idx", "train_m": 4},
         "idx data needs image/label paths and train_m"),
        ({"kind": "idx", "idx_images": "i.idx", "train_m": 4},
         "idx data needs image/label paths and train_m"),
        ({"kind": "idx", "idx_images": "i.idx", "idx_labels": "l.idx"},
         "idx data needs image/label paths and train_m"),
        ({"kind": "dataset", "dataset_path": "d.stpd", "train_m": 2},
         "train_m = 2 on dataset data: the whole file is the train set"),
        ({"kind": "dataset", "dataset_path": "d.stpd", "data_seed": 5},
         "data_seed on dataset data: only a teacher draws its data"),
        ({"kind": "idx", "idx_images": "i.idx", "idx_labels": "l.idx",
          "train_m": 4, "data_seed": 0},
         "data_seed on idx data: only a teacher draws its data"),
    ], ids=["unknown kind", "teacher without a spec", "teacher without train_m",
            "dataset without a path", "idx without images", "idx without labels",
            "idx without train_m", "train_m on dataset data",
            "data_seed on dataset data", "data_seed on idx data"])
    def test_each_kind_needs_its_inputs(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            DataSource(**fields)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_below_one_rejected(self, epochs):
        with pytest.raises(ConfigError, match="^epochs must be >= 1$"):
            toy_config(epochs=epochs, log_every=1)

    @pytest.mark.parametrize("which", ["train", "test"])
    def test_data_dimension_checked_before_init(self, which, monkeypatch):
        import steepdesc.harness as harness

        def no_init(*args):
            raise AssertionError("init_params ran before the dimension check")

        monkeypatch.setattr(harness, "init_params", no_init)
        wide = Dataset(np.ones((2, 3)), np.array([1.0, -1.0]))
        sets = ({"train": wide} if which == "train"
                else {"train": four_point_set(), "test": wide})
        with pytest.raises(ShapeMismatchError, match=fr"{which} inputs must have "
                                                     fr"shape \(m, 2\), got \(2, 3\)"):
            run_training(toy_config(), **sets)

    def test_stpd_source(self, tmp_path):
        from steepdesc.harness import resolve_data
        path = tmp_path / "toy.stpd"
        save_dataset(four_point_set(), path)
        config = toy_config(data=DataSource(kind="dataset",
                                            dataset_path=str(path)))
        train, test = resolve_data(config)
        assert train.m == 4 and test is None
