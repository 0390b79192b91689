"""Command-line entry points.

Subcommands: ``generate-data`` (teacher-student fixture), ``train`` (run a
config file), ``diagnose`` (margin/KKT report from a checkpoint),
``oracle`` (grid-search max margin on a tiny linear instance), and
``sweep`` (seed/scale grid over a base config).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from .diagnostics import kkt_residuals, margin_report
from .errors import ConfigError, NotSeparatedError, SteepdescError
from .harness import (CSV_COLUMNS, config_from_values, emit_svg, parse_norm,
                      read_flat_config, run_training)
from .losses import LossSpec, evaluate
from .models import load_checkpoint
from .oracle import grid_max_margin


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steepdesc",
        description="Steepest descent under arbitrary norms with margin "
                    "and KKT diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="write a teacher-student dataset")
    g.add_argument("--input-dim", type=int, required=True)
    g.add_argument("--teacher-k", type=int, required=True)
    g.add_argument("--active", type=int, default=3)
    g.add_argument("--weight-scale", type=float, default=1.0)
    g.add_argument("--teacher-seed", type=int, default=1)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--data-seed", type=int, default=1)
    g.add_argument("--out", required=True, help="output .stpd path")
    g.add_argument("--csv", default=None, help="also export a CSV view")

    t = sub.add_parser("train", help="run a training config")
    t.add_argument("--config", required=True)
    t.add_argument("--output-dir", default=None,
                   help="override the config's output directory")
    t.add_argument("--strict", action="store_true",
                   help="fail the run on any trajectory-invariant violation")
    t.add_argument("--svg-metrics", default=None,
                   help="comma list of logged columns to chart (SVG)")
    t.add_argument("--svg-log-y", action="store_true")

    d = sub.add_parser("diagnose", help="margin/KKT report for a checkpoint")
    d.add_argument("--checkpoint", required=True)
    d.add_argument("--data", required=True, help=".stpd dataset path")
    d.add_argument("--norm", default="l2")
    d.add_argument("--loss", default="exponential")
    d.add_argument("--gamma-tilde-t0", type=float, default=None)
    d.add_argument("--out", default=None, help="write JSON here instead of stdout")

    o = sub.add_parser("oracle", help="grid max-margin on a tiny linear instance")
    o.add_argument("--norm", default="l2")
    o.add_argument("--data", required=True, help=".csv or .stpd instance, d <= 3")
    o.add_argument("--resolution", type=float, default=1e-3)

    s = sub.add_parser("sweep", help="seed/scale grid over a base config")
    s.add_argument("--config", required=True)
    s.add_argument("--seeds", required=True, help="comma list of seeds")
    s.add_argument("--scales", default=None,
                   help="comma list of init scales (defaults to the config's)")
    s.add_argument("--output-dir", required=True)
    return parser


def _cmd_generate_data(args) -> int:
    spec = data_mod.TeacherSpec(input_dim=args.input_dim, width=args.teacher_k,
                                active_per_neuron=args.active,
                                weight_scale=args.weight_scale,
                                seed=args.teacher_seed)
    teacher = data_mod.gen_teacher(spec)
    ds = data_mod.sample_dataset(teacher, args.m, args.data_seed,
                                 {"teacher_seed": str(spec.seed)})
    data_mod.save_dataset(ds, args.out)
    if args.csv:
        data_mod.export_csv(ds, args.csv)
    print(f"wrote {ds.m} examples (d={ds.d}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    values = read_flat_config(args.config)
    if args.strict:
        values["strict"] = True
    config = config_from_values(values, output_dir=args.output_dir)
    if config.output_dir is None:
        config = dataclasses.replace(config, output_dir="run_output")
    metrics = [m.strip() for m in (args.svg_metrics or "").split(",") if m.strip()]
    unknown = [m for m in metrics if m not in CSV_COLUMNS]
    if unknown:
        raise ConfigError(f"--svg-metrics: unknown column(s) {', '.join(unknown)}; "
                          f"logged columns are {', '.join(CSV_COLUMNS)}")
    log = run_training(config)
    out = Path(config.output_dir)
    if metrics:
        axes = {"y": "log"} if args.svg_log_y else {}
        emit_svg(log, metrics, axes, out / "run.svg")
    for w in log.warnings:
        print(f"warning: {w}", file=sys.stderr)
    t0 = log.t0_step if log.t0_step is not None else "never"
    print(f"finished {config.epochs} steps; separation at {t0}; "
          f"outputs in {out}")
    return 0


def _report_json(report) -> dict:
    out = {}
    for key, value in dataclasses.asdict(report).items():
        if isinstance(value, np.ndarray):
            out[key] = value.tolist()
        elif isinstance(value, dict):
            out[key] = {k: float(v) for k, v in value.items()}
        elif value is None or isinstance(value, (bool, str)):
            out[key] = value
        else:
            out[key] = float(value)
    return out


def _cmd_diagnose(args) -> int:
    model, theta = load_checkpoint(args.checkpoint)
    ds = data_mod.load_dataset(args.data)
    norm = parse_norm(args.norm)
    ev = evaluate(LossSpec(args.loss), model, theta, ds)
    payload = {"margin_report": _report_json(margin_report(ev, norm))}
    try:
        payload["kkt_report"] = _report_json(kkt_residuals(
            ev, norm, gamma_tilde_t0=args.gamma_tilde_t0))
    except NotSeparatedError:
        payload["kkt_report"] = None
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text)
    return 0


def _cmd_oracle(args) -> int:
    path = Path(args.data)
    if path.suffix == ".csv":
        ds = data_mod.load_points_csv(path)
    else:
        ds = data_mod.load_dataset(path)
    result = grid_max_margin(parse_norm(args.norm), ds, args.resolution)
    theta = result.theta_star.blocks[0]
    print(f"gamma_star = {result.gamma_star:.12g}")
    print("theta_star = [" + ", ".join(f"{v:.12g}" for v in theta) + "]")
    print(f"resolution = {result.resolution:g}")
    return 0


def _cmd_sweep(args) -> int:
    base = read_flat_config(args.config)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    scales = ([float(s) for s in args.scales.split(",") if s.strip()]
              if args.scales else [float(base.get("init_scale", 0.01))])
    out_root = Path(args.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in sorted(seeds):
        for scale in sorted(scales):
            values = dict(base)
            values["seed"] = seed
            values["init_scale"] = scale
            run_dir = out_root / f"seed{seed}_scale{scale:g}"
            values["output_dir"] = str(run_dir)
            config = config_from_values(values)
            try:
                log = run_training(config)
                final = log.rows[-1]
                rows.append((seed, scale, 0, final.test_acc, final.gamma_1,
                             final.gamma_2, final.gamma_inf))
            except SteepdescError as exc:
                print(f"seed {seed} scale {scale:g}: {exc}", file=sys.stderr)
                rows.append((seed, scale, 1, None, None, None, None))
    with open(out_root / "sweep.csv", "w", encoding="utf-8") as f:
        f.write("seed,init_scale,diverged,test_acc,gamma_1,gamma_2,gamma_inf\n")
        for row in rows:
            f.write(",".join("" if v is None else repr(v)
                             if isinstance(v, float) else str(v)
                             for v in row) + "\n")
    print(f"sweep finished: {len(rows)} runs, manifest in {out_root / 'sweep.csv'}")
    return 0


_COMMANDS = {
    "generate-data": _cmd_generate_data,
    "train": _cmd_train,
    "diagnose": _cmd_diagnose,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SteepdescError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
