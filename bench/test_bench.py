"""Tests of the benchmark's own code: output checks, span arithmetic, and
that the layer trace misses no call site."""
import cProfile
import json
import pstats
import shutil
import subprocess
import sys
import types
from pathlib import Path

import layer_trace
import run as bench_run
from steepdesc import harness
from workloads import DEFAULT_SEED, ConfigRun, write_config

ROOT = Path(__file__).resolve().parent.parent
SHORT = ConfigRun("short", "desk_gd", {"log_every": 1, "test_m": 0, "epochs": 150})


def short_run(tmp_path: Path):
    """A desk_gd run that separates (step 96) and logs every step."""
    cfg = write_config(ROOT, SHORT, DEFAULT_SEED, tmp_path / "short.cfg",
                       str(tmp_path / "out"))
    config = harness.load_config(cfg)
    train, test = harness.resolve_data(config)
    log = harness.run_training(config, train, test)
    return config, log


def function_bindings():
    return {(mod.__name__, attr): value
            for mod in layer_trace._package_modules()
            for attr, value in vars(mod).items()
            if isinstance(value, types.FunctionType)}


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 3] and c [4, 6]; c holds d [4.5, 5.5];
    # then b again [11, 12] at the top level
    times = iter([0.0, 1.0, 3.0, 4.0, 4.5, 5.5, 6.0, 10.0, 11.0, 12.0])
    tracer = layer_trace.Tracer(clock=lambda: next(times))
    tracer.enter("x.a")
    tracer.enter("y.b")
    tracer.exit()
    tracer.enter("z.c")
    tracer.enter("x.d")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    tracer.enter("y.b")
    tracer.exit()
    spans = {name: agg for (_, name), agg in tracer.spans.items()}
    assert spans == {"x.a": [1, 10.0, 6.0], "y.b": [2, 3.0, 3.0],
                     "z.c": [1, 2.0, 1.0], "x.d": [1, 1.0, 1.0]}
    # x.d runs inside x.a, so layer x is open for a's 10 s only
    assert dict(tracer.layers) == {("setup", "x"): 10.0, ("setup", "y"): 3.0,
                                   ("setup", "z"): 2.0}


def test_traced_call_counts_equal_a_cprofile_count(tmp_path):
    before = function_bindings()
    tracer = layer_trace.Tracer()
    with layer_trace.traced(tracer):
        short_run(tmp_path / "traced")
    assert function_bindings() == before, "tracing left a wrapper behind"
    traced = {}
    for (_, name), (calls, _, _) in tracer.spans.items():
        base = name.rsplit(".", 1)[0] if name.count(".") > 1 else name
        traced[base] = traced.get(base, 0) + calls

    profile = cProfile.Profile()
    profile.runcall(short_run, tmp_path / "profiled")
    profiled = {(str(Path(filename).resolve()), line): calls
                for (filename, line, _), (_, calls, *_)
                in pstats.Stats(profile).stats.items()}

    for name in ("losses.output_margins", "models.weighted_subgradient_sum",
                 "diagnostics.margin_report"):
        assert traced[name] > 0
    for fn, name in layer_trace.boundary_functions().items():
        code = fn.__code__
        key = (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        assert traced.get(name, 0) == profiled.get(key, 0), name


def test_a_tampered_run_csv_counts_as_a_failure(tmp_path):
    config, log = short_run(tmp_path)
    out = Path(config.output_dir)
    record = {"rows": len(log.rows), "checkpoint_matches": True}
    digests, problems = bench_run.check_outputs(out, record, {})
    assert problems == []
    assert set(digests) == {"run.csv", "final.ckpt"}

    csv = out / "run.csv"
    text = csv.read_text(encoding="utf-8")
    assert text.endswith(",1\n")     # the last row is past separation
    csv.write_text(text[:-2] + "0\n", encoding="utf-8")
    _, problems = bench_run.check_outputs(out, record,
                                          {"pinned digest": digests})
    assert len(problems) == 1 and "run.csv sha256" in problems[0]


def test_metrics_cover_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = layer_trace.Tracer()
    with layer_trace.traced(tracer):
        tracer_config, log = short_run(tmp_path)
    record = {"steps": tracer_config.epochs, "rows": len(log.rows),
              "wall_s": 1.0, "setup_s": 0.1, "train_s": 0.9,
              "peak_rss_mb": 50.0, **tracer.as_record()}
    results = [{"label": "short", "rep": 0, "traced": traced, "problems": [],
                "record": record, "csv_bytes": 1}
               for traced in (False, True)]
    e2e = bench_run.end_to_end(results, [SHORT])
    layer = bench_run.per_layer(results, [SHORT])
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    assert {m["name"] for m in spec["per_layer"]} == set(layer)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
