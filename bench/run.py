"""The steepdesc benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each repetition runs the workload's
configs (``workloads.py``) one after another, each as a train-equivalent run
in a fresh process (``rep.py``) on the checkout's ``src/``, and repetitions
are started until ``--seconds`` have passed. Every run's ``run.csv`` and
``final.ckpt`` are digested and checked: against the digests pinned for the
default seed and the BLAS thread count (``pins.json``), and against the first
repetition of this invocation. A run fails if it raises or a check fails.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics. Outputs, digests and the environment go to
``.bench_out/results/``; the last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, write_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# An invocation stops starting runs at half this, and ends well inside 180 s.
DEADLINE_S = 160.0
CSV_FIELDS = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out_dir: Path, record: dict, expected: dict) -> tuple[dict, list]:
    """Digest one run's outputs and list what is wrong with them.

    ``expected`` maps a reference name (a pin, the first repetition) to the
    digests the outputs must have.
    """
    problems, digests = [], {}
    for name in ("run.csv", "final.ckpt"):
        path = out_dir / name
        if path.is_file():
            digests[name] = sha256(path)
        else:
            problems.append(f"{name} is missing")
    if "run.csv" in digests:
        lines = (out_dir / "run.csv").read_text(encoding="utf-8").splitlines()
        if len(lines) != record["rows"] + 1:
            problems.append(f"run.csv has {len(lines) - 1} rows, the run "
                            f"logged {record['rows']}")
        if any(line.count(",") != CSV_FIELDS - 1 for line in lines):
            problems.append(f"run.csv has a line without {CSV_FIELDS} fields")
    if not record["checkpoint_matches"]:
        problems.append("final.ckpt does not load back to the final parameters")
    for ref, want in expected.items():
        for name, digest in want.items():
            if name in digests and digests[name] != digest:
                problems.append(f"{name} sha256 {digests[name][:16]} differs "
                                f"from the {ref} {digest[:16]}")
    return digests, problems


def run_config(run, seed: int, rep: int, traced: bool, timeout: float) -> dict:
    """One train-equivalent run in a fresh process; its record and outputs."""
    rel = Path(".bench_out") / "runs" / run.label
    cfg = write_config(ROOT, run, seed, ROOT / rel.with_suffix(".cfg"),
                       rel.as_posix())
    shutil.rmtree(ROOT / rel, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("STEEPDESC_OUTPUT_DIR", None)
    result = {"label": run.label, "rep": rep, "traced": traced}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "rep.py"), "--config", str(cfg),
             "--trace", str(int(traced))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return dict(result, problems=[f"no result within {timeout:.0f} s"])
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return dict(result, problems=[f"exit code {proc.returncode}: {tail[0]}"])
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    result["record"] = record
    result["csv_bytes"] = (ROOT / rel / "run.csv").stat().st_size \
        if (ROOT / rel / "run.csv").is_file() else 0
    return result


def median(values):
    return statistics.median(values) if values else None


def end_to_end(results: list, runs) -> dict:
    """Per-config medians over the repetitions, combined over the configs."""
    ok = [r for r in results if not r["traced"] and not r["problems"]]
    per = {run.label: [r["record"] for r in ok if r["label"] == run.label]
           for run in runs}
    if not all(per.values()):
        return {}

    def med(label, key):
        return median([rec[key] for rec in per[label]])

    attempted = sum(not r["traced"] for r in results)
    failed = sum(not r["traced"] and bool(r["problems"]) for r in results)
    return {
        "wall_s": sum(med(lab, "wall_s") for lab in per),
        "setup_s": sum(med(lab, "setup_s") for lab in per),
        "steps_per_s": (sum(per[lab][0]["steps"] for lab in per)
                        / sum(med(lab, "train_s") for lab in per)),
        "peak_rss_mb": max(med(lab, "peak_rss_mb") for lab in per),
        "success_rate": (attempted - failed) / attempted,
        "error_rate": failed / attempted,
    }


def _rep_aggregate(group: list) -> dict:
    """Sum the traced records of one repetition over its configs."""
    agg = {"spans": {}, "counts": {}, "layers": {}, "steps": 0, "rows": 0,
           "csv_bytes": 0, "wall_s": 0.0}
    for r in group:
        rec = r["record"]
        agg["steps"] += rec["steps"]
        agg["rows"] += rec["rows"]
        agg["wall_s"] += rec["wall_s"]
        agg["csv_bytes"] += r["csv_bytes"]
        for phase, name, calls, total, self_s in rec["spans"]:
            cur = agg["spans"].setdefault((phase, name), [0, 0.0, 0.0])
            cur[0] += calls
            cur[1] += total
            cur[2] += self_s
        for key in ("counts", "layers"):
            for phase, name, value in rec[key]:
                agg[key][(phase, name)] = agg[key].get((phase, name), 0) + value
    return agg


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics of one traced repetition."""
    spans, counts, layers = agg["spans"], agg["counts"], agg["layers"]
    steps, rows = agg["steps"], agg["rows"]

    def calls(name, phase="loop"):
        return spans.get((phase, name), (0, 0.0, 0.0))[0]

    def self_s(name, phase="loop"):
        return spans.get((phase, name), (0, 0.0, 0.0))[2]

    def layer_self_s(layer):
        return sum(v[2] for (phase, name), v in spans.items()
                   if phase == "loop" and name.partition(".")[0] == layer)

    forward = counts.get(("loop", "models.forward_passes"), 0)
    out = {
        "models.forward_batch.calls_per_step": calls("models.forward_batch") / steps,
        "losses.output_margins.calls_per_step":
            calls("losses.output_margins") / steps,
        "models.forward_useful_ratio":
            counts.get(("loop", "models.distinct_forward_passes"), 0) / forward
            if forward else 1.0,
        "models.flops_per_step": counts.get(("loop", "models.flops"), 0) / steps,
        "models.bytes_per_step": counts.get(("loop", "models.bytes"), 0) / steps,
        "params.constructions_per_step":
            counts.get(("loop", "params.constructions"), 0) / steps,
        "norms.dual_norm_value.calls_per_step":
            calls("norms.dual_norm_value") / steps,
        "diagnostics.margin_report.calls_per_row":
            calls("diagnostics.margin_report") / rows,
        "diagnostics.kkt_residuals.calls_per_row":
            calls("diagnostics.kkt_residuals") / rows,
        "harness.emit_csv.bytes": agg["csv_bytes"],
        "diagnostics.inclusive_s": layers.get(("loop", "diagnostics"), 0.0),
        "trace.accounting_s": self_s("trace.forward_accounting"),
    }
    for name in ("models.forward_batch", "models.weighted_subgradient_sum",
                 "norms.unit_steepest_direction.l1",
                 "norms.unit_steepest_direction.l2",
                 "norms.unit_steepest_direction.linf", "norms.norm_value",
                 "losses.loss_subgradient_scaled", "losses.log_loss",
                 "optimizers.take_step.steepest", "optimizers.take_step.shampoo",
                 "diagnostics.margin_report", "diagnostics.kkt_residuals",
                 "harness.evaluate_accuracy", "harness.emit_csv",
                 "harness.check_invariants", "harness.run_training"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("data.sample_dataset", "data.gen_teacher"):
        out[f"{name}.self_s"] = self_s(name, "setup")
    # inclusive time: the loop's, and that of callers whose work is mostly
    # a forward pass, which their self time leaves out
    for name in ("harness.run_training", "harness.evaluate_accuracy",
                 "diagnostics.margin_report", "diagnostics.kkt_residuals"):
        out[f"{name}.total_s"] = spans.get(("loop", name), (0, 0.0, 0.0))[1]
    for layer in ("models", "losses", "norms", "optimizers", "diagnostics"):
        out[f"{layer}.self_s"] = layer_self_s(layer)
    return out


def per_layer(results: list, runs) -> dict:
    """Medians over the traced repetitions, and the tracing overhead."""
    def reps(traced):
        groups = {}
        for r in results:
            if r["traced"] == traced:
                groups.setdefault(r["rep"], []).append(r)
        return [g for g in groups.values()
                if len(g) == len(runs) and not any(r["problems"] for r in g)]

    traced = [_rep_aggregate(g) for g in reps(True)]
    plain = [sum(r["record"]["wall_s"] for r in g) for g in reps(False)]
    if not traced or not plain:
        return {}
    per_rep = [layer_metrics(agg) for agg in traced]
    out = {name: median([m[name] for m in per_rep]) for name in per_rep[0]}
    out["trace.overhead_frac"] = median([a["wall_s"] for a in traced]) / median(plain) - 1.0
    out["trace.samples"] = len(traced)
    return out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.cfg")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
    }


def checkout_problem(runs) -> str | None:
    need = [ROOT / "src" / "steepdesc" / "__init__.py", ROOT / "BENCHMARK.json"]
    need += [ROOT / "configs" / f"{run.base}.cfg" for run in runs]
    missing = [str(p.relative_to(ROOT)) for p in need if not p.is_file()]
    return f"not a steepdesc checkout, missing {', '.join(missing)}" if missing else None


def measure(runs, seed: int, seconds: float, trace: bool, pins: dict):
    """Repeat the workload for ``seconds``; every run's result, checked."""
    start = time.perf_counter()
    results, first = [], {}
    rep = 0
    # repetitions are whole, so stop at the one that ends nearest ``seconds``
    while rep == 0 or (time.perf_counter() - start) * (1 + 0.5 / rep) < seconds:
        for traced in ((False, True) if trace else (False,)):
            for run in runs:
                left = DEADLINE_S - (time.perf_counter() - start)
                res = run_config(run, seed, rep, traced, max(left, 1.0))
                res.setdefault("problems", [])
                if "record" in res:
                    expected = {}
                    pin = pins.get(run.label, {}).get(
                        str(res["record"]["blas_threads"]))
                    if seed == DEFAULT_SEED and pin:
                        expected["pinned digest"] = pin
                    if run.label in first:
                        expected["first repetition"] = first[run.label]
                    res["digests"], res["problems"] = check_outputs(
                        ROOT / res["record"]["output_dir"], res["record"], expected)
                    first.setdefault(run.label, res["digests"])
                results.append(res)
        rep += 1
        if time.perf_counter() - start > DEADLINE_S / 2:
            break
    return results, first, time.perf_counter() - start


def print_summary(report: dict, spec: dict, metrics: dict, results: list,
                  out_file: Path) -> None:
    runs = WORKLOADS[report["workload"]]
    failed = sum(bool(r["problems"]) for r in results)
    reps = sum(not r["traced"] for r in results) // len(runs)
    print(f"workload {report['workload']}, seed {report['seed']}, trace "
          f"{report['trace']}: {len(results)} runs of {len(runs)} config(s), "
          f"{failed} failed, {report['elapsed_s']:.1f} s")
    print(f"  end to end (medians of {reps} repetition(s) per config):")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["error_rate"] = "ratio"
    for name, value in report["end_to_end"].items():
        print(f"    {name:<14} {value:>14.6g} {units[name]}")
    if report["trace"]:
        print(f"  per layer (medians of "
              f"{report['per_layer'].get('trace.samples', 0)} traced "
              f"repetition(s)):")
        for name, m in metrics.items():
            print(f"    {name:<44} {m['value']!s:>22} {m['unit']}")
    for r in results:
        for problem in r["problems"]:
            print(f"  FAILED {r['label']} rep {r['rep']}: {problem}")
    for label, digests in report["digests"].items():
        print(f"  sha256 {label}: "
              + ", ".join(f"{k} {v}" for k, v in digests.items()))
    print("  environment: " + ", ".join(
        f"{k}={v}" for k, v in report["environment"].items())
        + f", blas_threads={report['blas_threads']}")
    print(f"  full report: {out_file.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runs = WORKLOADS[args.workload]
    problem = checkout_problem(runs)
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
    shutil.rmtree(OUT / "runs", ignore_errors=True)

    results, first, elapsed = measure(runs, args.seed, args.seconds,
                                      bool(args.trace), pins)
    e2e = end_to_end(results, runs)
    layer = per_layer(results, runs) if args.trace else {}
    values = layer if args.trace else e2e
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": elapsed,
        "environment": environment(),
        "blas_threads": next((r["record"]["blas_threads"] for r in results
                              if "record" in r), None),
        "digests": first, "end_to_end": e2e, "per_layer": layer,
        "runs": [{k: v for k, v in r.items() if k != "record"}
                 | {"record": {k: v for k, v in r.get("record", {}).items()
                               if k not in ("spans", "counts", "layers")}}
                 for r in results],
    }
    out_file = OUT / "results" / (f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print_summary(report, spec, metrics, results, out_file)
    failed = sum(bool(r["problems"]) for r in results)
    print(json.dumps({"correct": failed == 0 and bool(values),
                      "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
