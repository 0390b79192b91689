import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steepdesc
from steepdesc.cli import _build_parser, cli_main
from steepdesc.data import Dataset, export_csv, load_dataset, save_dataset
from steepdesc.diagnostics import kkt_residuals, margin_report
from steepdesc.harness import load_config, parse_norm
from steepdesc.losses import LossSpec, evaluate
from steepdesc.models import (InitSpec, ModelSpec, init_params, load_checkpoint,
                              save_checkpoint)
from steepdesc.oracle import MAX_GRID_POINTS
from steepdesc.params import ParamVector


TOY_CONFIG = """
model_kind = two_layer_relu
input_dim = 2
width = 8
init_scale = 0.05
init_seed = 3
loss = exponential
optimizer = steepest
norm = l2
step_size = 0.05
data_kind = dataset
dataset_path = {data}
epochs = 400
log_every = 100
diagnostics_norms = l2
seed = 1
output_dir = {out}
"""


# switches TOY_CONFIG to a generated teacher dataset
TEACHER = "data_kind = teacher\ntrain_m = 8\nteacher_active = 1\n"

# a tiny linear run on a dataset file
LINEAR_CONFIG = """
model_kind = linear
input_dim = 2
data_kind = dataset
dataset_path = {data}
step_size = 0.05
epochs = 20
log_every = 10
"""

# a separable pair for the oracle
TWO_POINTS = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))


@pytest.fixture
def toy_dataset(tmp_path):
    from steepdesc.data import Dataset, save_dataset
    X = np.array([[1.0, 0.2], [0.8, -0.3], [-1.0, 0.1], [-0.7, 0.4]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    path = tmp_path / "toy.stpd"
    save_dataset(Dataset(X, y), path)
    return path


def write_config(tmp_path, data_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TOY_CONFIG.format(data=data_path, out=out))
    return cfg, out


class TestTrainCommand:
    def test_creates_outputs(self, tmp_path, toy_dataset, capsys):
        cfg, out = write_config(tmp_path, toy_dataset)
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert (out / "run.csv").exists()
        assert (out / "final.ckpt").exists()
        assert "finished" in capsys.readouterr().out

    def test_missing_config_nonzero_exit(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert cli_main(["train", "--config", str(missing)]) != 0
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["input_dim = abc", "step_size = -1",
                                      "epochs = 1.5e", "loss = hinge",
                                      "epochs = 1e400", "width = inf",
                                      "seed = -inf", "epochs = 400.5",
                                      "seed = true",
                                      TEACHER + "data_seed = true"])
    def test_malformed_value_exits_1(self, tmp_path, toy_dataset, capsys, line):
        cfg, _ = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + line + "\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("lines", [
        "normalized = no",
        "switch_to = steepest\nswitch_normalized = yes",
        "freeze_second_layer = 1",
        "strict = on",
    ], ids=["normalized", "switch_normalized", "freeze_second_layer", "strict"])
    def test_non_boolean_flag_exits_1(self, tmp_path, toy_dataset, capsys, lines):
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + lines + "\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "true or false" in err
        assert not (out / "run.csv").exists()

    @pytest.mark.parametrize("lines, key", [
        ("step_size = nan", "step_size"),
        ("step_size = inf", "step_size"),
        ("switch_to = steepest\nswitch_step_size = nan", "step_size"),
        ("init_scale = nan", "init scale"),
        ("init_scale = inf", "init scale"),
        ("optimizer = adam\nadam_eps = nan", "eps"),
        ("optimizer = adam\nadam_eps = inf", "eps"),
        ("optimizer = shampoo\nshampoo_eps_reg = nan", "eps_reg"),
        ("optimizer = shampoo\nshampoo_eps_reg = inf", "eps_reg"),
        (TEACHER + "teacher_weight_scale = nan",
         "weight_scale"),
        (TEACHER + "teacher_weight_scale = inf",
         "weight_scale"),
        (TEACHER + "test_m = -5", "test_m"),
    ], ids=["step_size nan", "step_size inf", "switch_step_size nan",
            "init_scale nan", "init_scale inf", "adam_eps nan", "adam_eps inf",
            "shampoo_eps_reg nan", "shampoo_eps_reg inf",
            "teacher_weight_scale nan", "teacher_weight_scale inf",
            "test_m negative"])
    def test_non_finite_or_negative_value_exits_1(self, tmp_path, toy_dataset,
                                                 capsys, lines, key):
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + lines + "\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err
        assert "diverged" not in err
        assert not (out / "run.csv").exists()

    def test_data_dimension_mismatch_exits_1_before_init(self, tmp_path, capsys):
        """A d = 4 file under input_dim = 2 is a mismatch, not the out of
        memory that a 2^50-row first layer would be if it were drawn."""
        data = tmp_path / "d4.stpd"
        save_dataset(Dataset(np.eye(4), np.array([1.0, -1.0, 1.0, -1.0])), data)
        cfg, out = write_config(tmp_path, data)
        cfg.write_text(cfg.read_text().replace("width = 8", f"width = {2**50}"))
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == ("error: train inputs must have shape "
                                           "(m, 2), got (4, 4)\n")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("test_m = 5", "test_m > 0 needs teacher data: dataset data has no test set"),
        ("digit_b = 3", "digit_a and digit_b are both 3: idx data needs two classes"),
    ], ids=["test_m on dataset data", "one-class digits"])
    def test_data_source_without_a_test_set_or_a_second_class_exits_1(
            self, tmp_path, toy_dataset, capsys, line, message):
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + line + "\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_train_m_on_dataset_data_exits_1(self, tmp_path, toy_dataset, capsys):
        """The whole file is the train set: train_m = 2 on the 4-point file
        is an error, not a run on its 4 rows."""
        cfg = tmp_path / "linear.cfg"
        cfg.write_text(LINEAR_CONFIG.format(data=toy_dataset) + "train_m = 2\n")
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(cfg), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == ("error: train_m = 2 on dataset data: "
                                           "the whole file is the train set\n")
        assert not (out / "run.csv").exists()

    def test_data_seed_on_dataset_data_exits_1(self, tmp_path, toy_dataset, capsys):
        cfg = tmp_path / "linear.cfg"
        cfg.write_text(LINEAR_CONFIG.format(data=toy_dataset) + "data_seed = 5\n")
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(cfg), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == ("error: data_seed on dataset data: "
                                           "only a teacher draws its data\n")
        assert not (out / "run.csv").exists()

    @pytest.mark.parametrize("strict", [True, False])
    def test_strict_flag_fails_the_run_on_a_finding(self, tmp_path, toy_dataset,
                                                    capsys, monkeypatch, strict):
        """``--strict`` reaches the run: a finding of the invariant battery
        is an error, where without the flag it is a warning."""
        import steepdesc.harness as harness
        monkeypatch.setattr(harness, "check_invariants", lambda config, row, prev,
                            eta, m: ["step 0: fabricated"] if row.step == 0 else [])
        cfg, out = write_config(tmp_path, toy_dataset)
        argv = ["train", "--config", str(cfg)] + (["--strict"] if strict else [])
        assert cli_main(argv) == (1 if strict else 0)
        err = capsys.readouterr().err
        if strict:
            assert err == "error: step 0: fabricated\n"
            assert not (out / "run.csv").exists()
        else:
            assert err == "warning: step 0: fabricated\n"
            assert (out / "run.csv").exists()

    @pytest.mark.parametrize("line, key", [
        ("beta1 = inf", "Adam betas"),
        ("beta2 = 1.5", "Adam betas"),
        ("adam_eps = nan", "Adam eps"),
        ("shampoo_eps_reg = -1", "Shampoo eps_reg"),
        ("switch_step_size = -1", "step_size"),
    ], ids=["beta1 inf", "beta2 1.5", "adam_eps nan", "shampoo_eps_reg -1",
            "switch_step_size -1"])
    def test_out_of_range_value_of_an_unused_optimizer_exits_1(
            self, tmp_path, toy_dataset, capsys, line, key):
        """A steepest run with no switch still checks every real value's range."""
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + line + "\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err
        assert not (out / "run.csv").exists()

    @pytest.mark.parametrize("line, error", [
        ("teacher_k = 0", "teacher dimensions must be positive"),
        ("teacher_active = 0", "teacher dimensions must be positive"),
        ("teacher_weight_scale = -1", "weight_scale must be finite and positive"),
        ("teacher_weight_scale = nan", "weight_scale must be finite and positive"),
    ])
    def test_out_of_range_teacher_key_of_a_dataset_run_exits_1(
            self, tmp_path, toy_dataset, capsys, line, error):
        """A linear dataset run checks the ranges of the teacher keys too."""
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LINEAR_CONFIG.format(data=toy_dataset)
                       + f"output_dir = {out}\n{line}\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (out / "run.csv").exists()

    def test_active_inputs_past_input_dim_matter_only_to_a_drawn_teacher(
            self, tmp_path, toy_dataset, capsys):
        """input_dim = 2 with teacher_active = 3 trains on a dataset and is
        an error where a teacher is drawn."""
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LINEAR_CONFIG.format(data=toy_dataset)
                       + f"output_dir = {out}\nteacher_active = 3\n")
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert (out / "run.csv").exists()
        (tmp_path / "drawn").mkdir()
        cfg, out = write_config(tmp_path / "drawn", toy_dataset)
        cfg.write_text(cfg.read_text() + TEACHER + "teacher_active = 3\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert "active_per_neuron must be in [1, input_dim]" in capsys.readouterr().err
        assert not (out / "run.csv").exists()

    @pytest.mark.parametrize("lines, key", [
        ("init_scale = true", "init_scale"),
        ("step_size = true", "step_size"),
        ("switch_to = steepest\nswitch_step_size = false", "switch_step_size"),
        ("optimizer = adam\nbeta1 = false", "beta1"),
        ("optimizer = adam\nbeta2 = false", "beta2"),
        ("optimizer = adam\nadam_eps = true", "adam_eps"),
        ("optimizer = shampoo\nshampoo_eps_reg = true", "shampoo_eps_reg"),
        (TEACHER + "teacher_weight_scale = true", "teacher_weight_scale"),
    ], ids=["init_scale", "step_size", "switch_step_size", "beta1", "beta2",
            "adam_eps", "shampoo_eps_reg", "teacher_weight_scale"])
    def test_boolean_real_value_exits_1(self, tmp_path, toy_dataset, capsys,
                                        lines, key):
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + lines + "\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be a number"), err
        assert not (out / "run.csv").exists()

    def test_non_utf8_config_exits_1(self, tmp_path, toy_dataset, capsys):
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_bytes(cfg.read_bytes() + b"# caf\xe9\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {cfg}")
        assert not (out / "run.csv").exists()

    def test_dataset_of_another_dimension_exits_1(self, tmp_path, toy_dataset,
                                                  capsys):
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text().replace("input_dim = 2", "input_dim = 3"))
        assert cli_main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(m, 3)" in err, err
        assert not (out / "run.csv").exists()

    def test_second_diagnostics_norm_exits_1(self, tmp_path, toy_dataset, capsys):
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + "diagnostics_norms = l2,linf\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "run.csv").exists()

    @pytest.mark.parametrize("lines", [
        "data_seed = true\nteacher_k = 3.7\ntrain_m = abc",
        TEACHER + "switch_step_size = abc\nswitch_norm = nosuch\ndigit_a = 2.5",
        "output_dir = true",
    ], ids=["dataset run", "teacher run", "boolean output_dir"])
    def test_malformed_unused_or_path_value_exits_1(self, tmp_path, toy_dataset,
                                                    capsys, lines):
        """Every key present is parsed, whether or not the run reads it."""
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + lines + "\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.rglob("run.csv"))

    def test_output_dir_option_wins_over_the_environment(self, tmp_path,
                                                         toy_dataset, monkeypatch):
        monkeypatch.setenv("STEEPDESC_OUTPUT_DIR", str(tmp_path / "envdir"))
        cfg, out = write_config(tmp_path, toy_dataset)
        arg = tmp_path / "arg"
        assert cli_main(["train", "--config", str(cfg), "--output-dir", str(arg)]) == 0
        assert (arg / "run.csv").exists()
        assert not (tmp_path / "envdir").exists() and not out.exists()

    def test_misspelt_key_exits_1(self, tmp_path, toy_dataset, capsys):
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + "step_sise = 5.0\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "step_sise" in err
        assert not (out / "run.csv").exists()

    def test_refused_allocation_exits_1(self, tmp_path, toy_dataset, capsys):
        """The 3 * 2^50 initial parameters: the smallest array drawn for them
        takes 2^48 bytes or more, past the 2^47-byte user address space, so
        the allocation is refused before any page is touched."""
        cfg, out = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + f"width = {2**50}\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory: ")
        assert not out.exists()

    def test_svg_emission(self, tmp_path, toy_dataset):
        cfg, out = write_config(tmp_path, toy_dataset)
        code = cli_main(["train", "--config", str(cfg),
                         "--svg-metrics", "gamma_2,soft_margin"])
        assert code == 0
        assert (out / "run.svg").exists()

    def test_unknown_svg_metric_exits_1_before_training(self, tmp_path,
                                                        toy_dataset, capsys):
        cfg, out = write_config(tmp_path, toy_dataset)
        code = cli_main(["train", "--config", str(cfg),
                         "--svg-metrics", "gamma_2,nosuch"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nosuch" in err
        assert not (out / "run.csv").exists()

    @pytest.mark.parametrize("case", ["no test set", "never separates"])
    def test_svg_with_nothing_to_draw_exits_1_after_the_run(self, tmp_path,
                                                            capsys, case):
        """test_acc without a test set, or kkt_eps on a run that never
        separates, has no point to draw: an error naming the column, with
        the run's outputs written."""
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        if case == "no test set":
            text = LINEAR_CONFIG.format(data="unused") + TEACHER + "test_m = 0\n"
            column = "test_acc"
        else:
            data = tmp_path / "twice.stpd"      # one point under both labels
            save_dataset(Dataset(np.ones((2, 2)), np.array([1.0, -1.0])), data)
            text, column = LINEAR_CONFIG.format(data=data), "kkt_eps"
        cfg.write_text(text + f"output_dir = {out}\n")
        assert cli_main(["train", "--config", str(cfg),
                         "--svg-metrics", column]) == 1
        err = capsys.readouterr().err
        assert err == f"error: emit_svg: no drawable points in column(s) {column}\n"
        assert (out / "run.csv").exists() and (out / "final.ckpt").exists()
        assert not (out / "run.svg").exists()


class TestGenerateDataCommand:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "teacher.stpd"
        code = cli_main(["generate-data", "--input-dim", "8", "--teacher-k",
                         "4", "--active", "3", "--m", "32", "--out", str(out),
                         "--csv", str(tmp_path / "teacher.csv")])
        assert code == 0
        ds = load_dataset(out)
        assert ds.m == 32 and ds.d == 8
        assert (tmp_path / "teacher.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--input-dim", "2", "--teacher-k", "2", "--m", "8"],  # --active 3 > d
        ["--input-dim", "8", "--teacher-k", "4", "--m", "0"],
    ], ids=["more active inputs than inputs", "no examples"])
    def test_invalid_teacher_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "teacher.stpd"
        assert cli_main(["generate-data", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_refused_allocation_exits_1(self, tmp_path, capsys):
        """X alone would take 2^53 bytes, past the 2^47-byte user address
        space, so the allocation is refused before any page is touched."""
        out = tmp_path / "teacher.stpd"
        assert cli_main(["generate-data", "--input-dim", "4", "--teacher-k", "2",
                         "--active", "2", "--m", str(2**48),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory: ")
        assert not out.exists()


class TestOracleCommand:
    def test_symmetric_pair_prints_gamma(self, tmp_path, capsys):
        from steepdesc.data import Dataset
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))
        path = tmp_path / "two_points.csv"
        export_csv(ds, path)
        assert cli_main(["oracle", "--norm", "l2", "--data", str(path)]) == 0
        out = capsys.readouterr().out
        assert "gamma_star" in out
        gamma = float(out.splitlines()[0].split("=")[1])
        assert gamma == pytest.approx(1.0, abs=1e-6)

    def test_unknown_norm_fails(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("y,x1\n1,1.0\n")
        assert cli_main(["oracle", "--norm", "l7", "--data", str(path)]) == 1

    @pytest.mark.parametrize("norm, d", [("l2", 4), ("modular:l2,l1", 2)])
    def test_unsupported_instance_exits_1(self, tmp_path, capsys, norm, d):
        from steepdesc.data import Dataset
        path = tmp_path / "points.csv"
        export_csv(Dataset(np.eye(2, d), np.array([1.0, -1.0])), path)
        assert cli_main(["oracle", "--norm", norm, "--data", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_no_features_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.stpd"
        save_dataset(Dataset(np.empty((2, 0)), np.array([1.0, -1.0])), path)
        assert cli_main(["oracle", "--norm", "l2", "--data", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: grid oracle needs 1 <= d <= 3, got d = 0\n")

    @pytest.mark.parametrize("resolution", ["0", "-1", "nan", "inf", "-inf"])
    def test_resolution_not_finite_and_positive_exits_1(self, tmp_path, capsys,
                                                         resolution):
        path = tmp_path / "points.csv"
        export_csv(TWO_POINTS, path)
        assert cli_main(["oracle", "--data", str(path),
                         f"--resolution={resolution}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: resolution must be finite and positive"), err

    def test_grid_past_the_cap_exits_1(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        export_csv(TWO_POINTS, path)
        assert cli_main(["oracle", "--data", str(path),
                         "--resolution=1e-300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: resolution 1e-300 needs more than "
                              f"{MAX_GRID_POINTS} grid points"), err

    @pytest.mark.parametrize("text, where", [
        ("y,x1,x2\n1,1.0,0.5\n-1,abc,0.5\n", ":3: "),
        ("y,x1,x2\n1,1.0,0.5\n-1,-1.0\n", ":3: 2 cells"),
        ("y,x1,x2\n1,1.0,0.5,7\n-1,-1.0,0.5\n", ":2: 4 cells"),
        ("y,x1\n1,\n", ":2: "),
    ], ids=["non-numeric cell", "short row", "long row", "empty cell"])
    def test_malformed_csv_exits_1(self, tmp_path, capsys, text, where):
        path = tmp_path / "points.csv"
        path.write_text(text)
        assert cli_main(["oracle", "--norm", "l2", "--data", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}{where}")

    def test_non_finite_csv_cell_exits_1(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("y,x1,x2\n1,1.0,0.5\n-1,nan,0.5\n")
        assert cli_main(["oracle", "--norm", "l2", "--data", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:3: non-finite value in '-1,nan,0.5'\n")


class TestDiagnoseCommand:
    def test_json_report(self, tmp_path, toy_dataset, capsys):
        cfg, out = write_config(tmp_path, toy_dataset)
        assert cli_main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        code = cli_main(["diagnose", "--checkpoint", str(out / "final.ckpt"),
                         "--data", str(toy_dataset), "--norm", "l2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "margin_report" in payload
        assert payload["margin_report"]["separated"] is True
        assert payload["kkt_report"]["eps"] >= 0.0

    def test_every_report_field_is_printed(self, tmp_path, toy_dataset, capsys):
        """Each MarginReport and KKTReport field, with the value an
        in-process report at the checkpoint gives: the norm by its kind and
        block norms, the multipliers as a list."""
        cfg, out = write_config(tmp_path, toy_dataset)
        assert cli_main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        norm = "modular:spectral,l2"
        assert cli_main(["diagnose", "--checkpoint", str(out / "final.ckpt"),
                         "--data", str(toy_dataset), "--norm", norm,
                         "--gamma-tilde-t0", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        model, theta = load_checkpoint(out / "final.ckpt")
        ev = evaluate(LossSpec.exponential(), model, theta, load_dataset(toy_dataset))
        rep = margin_report(ev, parse_norm(norm))
        assert payload["margin_report"].pop("algo_norm") == {
            "kind": "modular_max", "block_norms": [
                {"kind": "spectral", "block_norms": []},
                {"kind": "l2", "block_norms": []}]}
        expected = {"margin_report": dataclasses.asdict(rep),
                    "kkt_report": dataclasses.asdict(kkt_residuals(ev, rep, 0.5))}
        del expected["margin_report"]["algo_norm"]
        expected["kkt_report"]["log_lambda"] = expected["kkt_report"]["log_lambda"].tolist()
        assert payload == expected
        assert payload["margin_report"]["grad_dual"] > 0.0
        assert None not in payload["kkt_report"].values()

    def test_zero_gradient_prints_strict_json(self, tmp_path, capsys):
        """g_hat = 0 makes the alignment NaN; it is printed as null, never
        as a bare NaN token."""
        from steepdesc.data import Dataset, save_dataset
        data = tmp_path / "pair.stpd"
        save_dataset(Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                             np.array([1.0, 1.0])), data)
        ckpt = tmp_path / "theta.ckpt"
        save_checkpoint(ckpt, ModelSpec.linear(2),
                        ParamVector.of(np.array([0.0, 1.0])))
        assert cli_main(["diagnose", "--checkpoint", str(ckpt),
                         "--data", str(data), "--norm", "l2"]) == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["margin_report"]["alignment"] is None
        assert payload["margin_report"]["grad_dual"] == 0.0
        assert payload["kkt_report"] is None

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
    def test_gamma_tilde_t0_not_finite_and_positive_exits_1(
            self, tmp_path, toy_dataset, capsys, value):
        cfg, out = write_config(tmp_path, toy_dataset)
        assert cli_main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        dest = tmp_path / "report.json"
        assert cli_main(["diagnose", "--checkpoint", str(out / "final.ckpt"),
                         "--data", str(toy_dataset), "--out", str(dest),
                         f"--gamma-tilde-t0={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --gamma-tilde-t0 must be finite and "
                              "positive"), err
        assert not dest.exists()

    def test_report_file_output(self, tmp_path, toy_dataset):
        cfg, out = write_config(tmp_path, toy_dataset)
        cli_main(["train", "--config", str(cfg)])
        dest = tmp_path / "report.json"
        cli_main(["diagnose", "--checkpoint", str(out / "final.ckpt"),
                  "--data", str(toy_dataset), "--out", str(dest)])
        assert json.loads(dest.read_text())["margin_report"]["q_min"] > 0

    @pytest.mark.parametrize("target, corrupt", [
        ("data", lambda b: b[:29]),
        ("data", lambda b: b[:6]),
        ("checkpoint", lambda b: b[:8]),
        ("checkpoint", lambda b: b[:12] + b"#" + b[13:]),
        ("checkpoint", lambda b: b[:-3]),
        ("checkpoint", lambda b: b[:-8] + struct.pack("<d", math.nan)),
        ("checkpoint", lambda b: b[:-16] + struct.pack("<d", -math.inf) + b[-8:]),
    ], ids=["dataset cut in its metadata", "dataset cut in its header",
            "checkpoint cut in its header", "checkpoint header not JSON",
            "checkpoint body not whole float64s", "checkpoint with a NaN",
            "checkpoint with an inf"])
    def test_malformed_input_exits_1(self, tmp_path, toy_dataset, capsys,
                                     target, corrupt):
        model = ModelSpec.two_layer_relu(2, 8)
        ckpt = tmp_path / "theta.ckpt"
        save_checkpoint(ckpt, model, init_params(model, InitSpec(0.05, seed=3)))
        path = {"data": toy_dataset, "checkpoint": ckpt}[target]
        path.write_bytes(corrupt(path.read_bytes()))
        code = cli_main(["diagnose", "--checkpoint", str(ckpt),
                         "--data", str(toy_dataset)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_checkpoint_of_another_dimension_exits_1(self, tmp_path, capsys):
        from steepdesc.data import Dataset, save_dataset
        data = tmp_path / "d5.stpd"
        save_dataset(Dataset(np.eye(2, 5), np.array([1.0, -1.0])), data)
        model = ModelSpec.two_layer_relu(16, 8)
        ckpt = tmp_path / "theta.ckpt"
        save_checkpoint(ckpt, model, init_params(model, InitSpec(0.05, seed=3)))
        code = cli_main(["diagnose", "--checkpoint", str(ckpt),
                         "--data", str(data)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(m, 16)" in err, err

    @pytest.mark.parametrize("flags", [b"[true, false]", b"[1, 0]", b'"ab"'],
                             ids=["a frozen u", "integer flags", "a string"])
    def test_flags_contradicting_the_model_exit_1(self, tmp_path, toy_dataset,
                                                   capsys, flags):
        model = ModelSpec.two_layer_relu(2, 8)
        ckpt = tmp_path / "theta.ckpt"
        save_checkpoint(ckpt, model, init_params(model, InitSpec(0.05, seed=3)))
        blob = ckpt.read_bytes()
        n, = struct.unpack("<I", blob[8:12])
        header = blob[12:12 + n].replace(b'"trainable": [true, true]',
                                         b'"trainable": ' + flags)
        assert header != blob[12:12 + n]
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                         + blob[12 + n:])
        code = cli_main(["diagnose", "--checkpoint", str(ckpt),
                         "--data", str(toy_dataset)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: ")

    def test_frozen_block_before_a_trainable_one_exits_1(self, tmp_path,
                                                         toy_dataset, capsys):
        model = ModelSpec.two_layer_relu(2, 8, freeze_second_layer=True)
        ckpt = tmp_path / "theta.ckpt"
        save_checkpoint(ckpt, model, init_params(model, InitSpec(0.05, seed=3)))
        blob = ckpt.read_bytes()
        swapped = blob.replace(b'"trainable": [true, false]',
                               b'"trainable": [false, true]')
        assert swapped != blob
        ckpt.write_bytes(swapped)
        code = cli_main(["diagnose", "--checkpoint", str(ckpt),
                         "--data", str(toy_dataset)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and "come first" in err


class TestSweepCommand:
    def test_grid_and_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("""
model_kind = two_layer_relu
input_dim = 4
width = 8
teacher_k = 3
teacher_active = 2
train_m = 12
test_m = 12
init_scale = 0.05
optimizer = steepest
norm = l2
step_size = 0.05
epochs = 300
log_every = 100
diagnostics_norms = l2
""")
        out = tmp_path / "sweep"
        code = cli_main(["sweep", "--config", str(cfg), "--seeds", "2,1",
                         "--scales", "0.05,0.01", "--output-dir", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("seed,init_scale,diverged")
        assert len(lines) == 5
        # deterministic manifest order: sorted seeds, then sorted scales
        first = [line.split(",")[:2] for line in lines[1:]]
        assert first == [["1", "0.01"], ["1", "0.05"], ["2", "0.01"],
                         ["2", "0.05"]]

    def test_one_directory_per_run_whatever_the_environment(self, tmp_path,
                                                            toy_dataset,
                                                            monkeypatch):
        monkeypatch.setenv("STEEPDESC_OUTPUT_DIR", str(tmp_path / "envdir"))
        cfg, _ = write_config(tmp_path, toy_dataset)
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(cfg), "--seeds", "1,2",
                         "--output-dir", str(out)]) == 0
        for seed in (1, 2):
            assert (out / f"seed{seed}_scale0.05" / "run.csv").exists()
        assert not (tmp_path / "envdir").exists()

    @pytest.mark.parametrize("grid", [["--seeds", "1,x"], ["--seeds", "1.5"],
                                      ["--seeds", "1", "--scales", "0.1,abc"],
                                      ["--seeds", "1", "--scales", "0.05,nan"]])
    def test_malformed_grid_entry_exits_1(self, tmp_path, toy_dataset, capsys,
                                          grid):
        cfg, _ = write_config(tmp_path, toy_dataset)
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(cfg), *grid,
                         "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_a_teacher_that_cannot_be_drawn_exits_1(self, tmp_path, capsys):
        """teacher_active > input_dim fails the sweep, not each run as a
        divergence."""
        cfg = tmp_path / "teacher.cfg"
        cfg.write_text("model_kind = linear\ninput_dim = 2\ntrain_m = 8\n"
                       "teacher_active = 3\nepochs = 20\n")
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(cfg), "--seeds", "1,2",
                         "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: active_per_neuron must be in [1, input_dim]\n")
        assert not (out / "sweep.csv").exists()

    def test_a_divergent_run_is_recorded_and_the_sweep_goes_on(self, tmp_path,
                                                                capsys):
        """At init scale 1e6 a margin of the mirrored pair lies below -709,
        so the raw step's gradient scale overflows and the run diverges at
        step 1: its row reads diverged = 1 with empty fields, and the other
        run is written."""
        data = tmp_path / "mirror.stpd"
        save_dataset(Dataset(np.array([[1.0, 2.0], [-1.0, -2.0]]),
                             np.array([1.0, 1.0])), data)
        cfg = tmp_path / "linear.cfg"
        cfg.write_text(LINEAR_CONFIG.format(data=data))
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(cfg), "--seeds", "1",
                         "--scales", "1e6,0.05", "--output-dir", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("seed 1 scale 1e+06: run diverged at step 1")
        header, kept, diverged = (out / "sweep.csv").read_text().splitlines()
        assert header == "seed,init_scale,diverged,test_acc,gamma_1,gamma_2,gamma_inf"
        assert diverged == "1,1000000.0,1,,,,"
        assert kept.startswith("1,0.05,0,,")          # no test set: empty test_acc
        assert all(v and math.isfinite(float(v)) for v in kept.split(",")[4:])
        assert (out / "seed1_scale0.05" / "run.csv").exists()
        assert not (out / "seed1_scale1e+06" / "run.csv").exists()

    def test_seeds_read_as_the_seed_key_reads_them(self, tmp_path, toy_dataset):
        """``--seeds 1e0`` is seed 1, as ``seed = 1e0`` in a file is."""
        cfg = tmp_path / "linear.cfg"
        cfg.write_text(LINEAR_CONFIG.format(data=toy_dataset))
        with_seed = tmp_path / "seeded.cfg"
        with_seed.write_text(cfg.read_text() + "seed = 1e0\n")
        assert load_config(with_seed).seed == 1
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(cfg), "--seeds", "1e0",
                         "--output-dir", str(out)]) == 0
        assert (out / "seed1_scale0.01" / "run.csv").exists()

    @pytest.mark.parametrize("grid, flag", [
        (["--seeds", ","], "--seeds"), (["--seeds", " "], "--seeds"),
        (["--seeds", "1", "--scales", ","], "--scales"),
        (["--seeds", "1", "--scales", ""], "--scales"),
        (["--seeds", "1,1"], "--seeds"), (["--seeds", "2,1,1e0"], "--seeds"),
        (["--seeds", "1", "--scales", "0.05,5e-2"], "--scales"),
        (["--seeds", "1", "--scales", "0.05,0.0500000001"], "--scales"),
    ], ids=["no seeds", "blank seeds", "no scales", "empty scales", "equal seeds",
            "seeds equal as numbers", "scales equal as numbers",
            "scales that print the same"])
    def test_empty_or_colliding_grid_exits_1_before_any_run(self, tmp_path,
                                                           toy_dataset, capsys,
                                                           grid, flag):
        cfg, _ = write_config(tmp_path, toy_dataset)
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(cfg), *grid,
                         "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert not out.exists()

    def test_unknown_subcommand_exits_nonzero(self):
        assert cli_main(["frobnicate"]) != 0


class TestConfigLoad:
    def test_load_config_round_trip(self, tmp_path, toy_dataset):
        cfg, _ = write_config(tmp_path, toy_dataset)
        config = load_config(cfg)
        assert config.epochs == 400
        assert config.optimizer.step_size == 0.05


def numeric_options() -> list:
    """(command, option) for every option that reads a number: those typed
    int or float, and the sweep's comma lists."""
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    typed = [(name, action.option_strings[0])
             for name, parser in sub.choices.items()
             for action in parser._actions if action.type in (int, float)]
    return typed + [("sweep", "--seeds"), ("sweep", "--scales")]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command, option", numeric_options(),
                         ids=lambda x: x)
def test_any_number_exits_0_1_or_2(tmp_path, toy_dataset, command, option, value):
    """Each numeric option, at 0, -1, nan and inf, on small inputs: the CLI
    ends in an exit code, never a traceback."""
    if command == "generate-data":
        base = ["--input-dim", "4", "--teacher-k", "2", "--active", "2",
                "--m", "4", "--out", str(tmp_path / "teacher.stpd")]
    elif command == "oracle":
        export_csv(TWO_POINTS, tmp_path / "points.csv")
        base = ["--data", str(tmp_path / "points.csv")]
    elif command == "sweep":
        cfg = tmp_path / "linear.cfg"
        cfg.write_text(LINEAR_CONFIG.format(data=toy_dataset))
        base = ["--config", str(cfg), "--seeds", "1",
                "--output-dir", str(tmp_path / "sweep")]
    else:
        model = ModelSpec.two_layer_relu(2, 8)
        ckpt = tmp_path / "theta.ckpt"
        save_checkpoint(ckpt, model, init_params(model, InitSpec(0.05, seed=3)))
        base = ["--checkpoint", str(ckpt), "--data", str(toy_dataset)]
    assert cli_main([command, *base, f"{option}={value}"]) in (0, 1, 2)


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(steepdesc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "teacher.stpd"
    proc = subprocess.run(
        [sys.executable, "-m", "steepdesc", "generate-data", "--input-dim", "4",
         "--teacher-k", "2", "--active", "2", "--m", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert load_dataset(out).m == 3
