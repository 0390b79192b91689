import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steepdesc
from steepdesc.cli import cli_main
from steepdesc.data import export_csv, load_dataset
from steepdesc.harness import load_config
from steepdesc.models import InitSpec, ModelSpec, init_params, save_checkpoint


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
                                      "epochs = 1.5e", "loss = hinge"])
    def test_malformed_value_exits_1(self, tmp_path, toy_dataset, capsys, line):
        cfg, _ = write_config(tmp_path, toy_dataset)
        cfg.write_text(cfg.read_text() + line + "\n")
        assert cli_main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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
    ], ids=["dataset cut in its metadata", "dataset cut in its header",
            "checkpoint cut in its header", "checkpoint header not JSON",
            "checkpoint body not whole float64s"])
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

    def test_unknown_subcommand_exits_nonzero(self):
        assert cli_main(["frobnicate"]) != 0


class TestConfigLoad:
    def test_load_config_round_trip(self, tmp_path, toy_dataset):
        cfg, _ = write_config(tmp_path, toy_dataset)
        config = load_config(cfg)
        assert config.epochs == 400
        assert config.optimizer.step_size == 0.05


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
