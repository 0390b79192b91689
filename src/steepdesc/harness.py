"""Run configuration, the full-batch training loop, logging, and emission.

One run is one sequential loop: full-batch subgradient, optimizer step
(honoring an at-separation switch rule), and every ``log_every`` steps a
margin report plus, after the separation step t0, a KKT report. Rows land
in a RunLog whose CSV serialization is byte-stable for a fixed config and
seed.

Separation time t0 is the first *logged* step whose log-loss is below the
loss threshold; its soft margin is frozen for the finite-time bounds.
Once log-loss falls below -700 the parameters freeze (logging continues)
to keep raw gradient magnitudes representable.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .data import (Dataset, TeacherSpec, gen_teacher, load_dataset, load_idx,
                   sample_dataset)
from .diagnostics import (MarginReport, detect_separation, kkt_residuals,
                          margin_report)
from .errors import ConfigError, DivergenceError, InvariantViolation
from .losses import EXPONENTIAL, Evaluation, LossSpec, evaluate, output_margins
from .models import (InitSpec, ModelSpec, Workspace, init_params,
                     save_checkpoint)
from .norms import NormSpec
from .optimizers import (AdamMethod, OptimizerSpec, OptimizerState,
                         ShampooMethod, SteepestMethod, apply_switch, take_step)
from .params import ParamVector
from .rng import derive_seeds

FREEZE_LOG_LOSS = -700.0
ACCURACY_CHUNK = 1024     # rows per hidden-layer product in evaluate_accuracy

CSV_COLUMNS = ("step", "log_loss", "train_acc", "test_acc", "q_min",
               "gamma_1", "gamma_2", "gamma_inf", "gamma_sigma", "soft_margin",
               "alignment", "kkt_eps", "kkt_delta", "bregman_gap",
               "bregman_bound", "norm_l1", "norm_l2", "norm_linf", "norm_spec",
               "t0_flag")


@dataclass(frozen=True)
class DataSource:
    kind: str                      # teacher | dataset | idx
    teacher: Optional[TeacherSpec] = None
    train_m: int = 0
    data_seed: Optional[int] = None
    test_m: int = 0
    test_seed: Optional[int] = None
    dataset_path: Optional[str] = None
    idx_images: Optional[str] = None
    idx_labels: Optional[str] = None
    digit_a: int = 3
    digit_b: int = 6

    def __post_init__(self):
        if self.kind not in ("teacher", "dataset", "idx"):
            raise ConfigError(f"unknown data kind {self.kind!r}")
        if self.kind == "teacher" and (self.teacher is None or self.train_m < 1):
            raise ConfigError("teacher data needs a TeacherSpec and train_m >= 1")
        if self.kind == "dataset" and not self.dataset_path:
            raise ConfigError("dataset data needs dataset_path")
        if self.kind == "idx" and not (self.idx_images and self.idx_labels
                                       and self.train_m >= 1):
            raise ConfigError("idx data needs image/label paths and train_m")


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    init: InitSpec
    loss: LossSpec
    optimizer: OptimizerSpec
    data: DataSource
    epochs: int
    log_every: int
    diagnostics_norms: tuple[NormSpec, ...]
    seed: int = 0
    output_dir: Optional[str] = None
    strict: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not (1 <= self.log_every <= self.epochs):
            raise ConfigError("log_every must satisfy 1 <= log_every <= epochs")
        if not self.diagnostics_norms:
            raise ConfigError("diagnostics_norms must be nonempty")


@dataclass
class LogRow:
    step: int
    log_loss: float
    train_acc: float
    test_acc: Optional[float]
    q_min: float
    gamma_1: float
    gamma_2: float
    gamma_inf: float
    gamma_sigma: float
    soft_margin: float
    alignment: float
    kkt_eps: Optional[float]
    kkt_delta: Optional[float]
    bregman_gap: Optional[float]
    bregman_bound: Optional[float]
    t0_flag: bool
    norm_l1: float = 0.0
    norm_l2: float = 0.0
    norm_linf: float = 0.0
    norm_spec: float = 0.0
    # carried for the invariant battery, not serialized
    gamma_algo: float = 0.0
    norm_algo: float = 0.0
    delta_bound: Optional[float] = None
    frozen: bool = False


@dataclass
class RunLog:
    rows: list = field(default_factory=list)
    t0_step: Optional[int] = None
    gamma_tilde_t0: Optional[float] = None
    final_theta: Optional[ParamVector] = None
    train_m: int = 0
    warnings: list = field(default_factory=list)


def resolve_data(config: RunConfig) -> tuple[Dataset, Optional[Dataset]]:
    """Materialize the train (and optional test) datasets for a run."""
    src = config.data
    sub = derive_seeds(config.seed, 3)
    if src.kind == "teacher":
        teacher = gen_teacher(src.teacher)
        tmeta = {"teacher_seed": str(src.teacher.seed)}
        data_seed = src.data_seed if src.data_seed is not None else sub[0]
        train = sample_dataset(teacher, src.train_m, data_seed, tmeta)
        test = None
        if src.test_m > 0:
            test_seed = src.test_seed if src.test_seed is not None else sub[1]
            test = sample_dataset(teacher, src.test_m, test_seed, tmeta)
        return train, test
    if src.kind == "dataset":
        return load_dataset(src.dataset_path), None
    train = load_idx(src.idx_images, src.idx_labels, src.digit_a, src.digit_b,
                     src.train_m)
    return train, None


def evaluate_accuracy(model: ModelSpec, theta: ParamVector, data) -> float:
    """Fraction of examples with y*f > 0; exact zeros count as errors.
    Rows are scored ``ACCURACY_CHUNK`` at a time through one reused buffer."""
    hidden = np.empty((min(ACCURACY_CHUNK, len(data.X)), model.width))
    q = output_margins(model, theta, data, hidden)
    return float((q > 0.0).mean())


def _build_row(step: int, config: RunConfig, ev: Evaluation, rep: MarginReport,
               test: Optional[Dataset], t0_known: bool,
               gamma_tilde_t0: Optional[float], frozen: bool) -> LogRow:
    algo = config.diagnostics_norms[0]
    row = LogRow(
        step=step,
        log_loss=rep.log_loss,
        train_acc=float((ev.q > 0.0).mean()),
        test_acc=(evaluate_accuracy(ev.model, ev.theta, test)
                  if test is not None else None),
        q_min=rep.q_min,
        gamma_1=rep.gamma_1,
        gamma_2=rep.gamma_2,
        gamma_inf=rep.gamma_inf,
        gamma_sigma=rep.gamma_sigma,
        soft_margin=rep.soft_margin,
        alignment=rep.alignment,
        kkt_eps=None, kkt_delta=None, bregman_gap=None, bregman_bound=None,
        t0_flag=t0_known,
        norm_l1=rep.param_norms["l1"],
        norm_l2=rep.param_norms["l2"],
        norm_linf=rep.param_norms["linf"],
        norm_spec=rep.param_norms["spectral"],
        gamma_algo=rep.gamma_algo,
        norm_algo=rep.param_norms[algo.label()],
        frozen=frozen,
    )
    if t0_known and rep.q_min > 0.0:
        kkt = kkt_residuals(ev, algo, gamma_tilde_t0=gamma_tilde_t0)
        row.kkt_eps = kkt.eps
        row.kkt_delta = kkt.delta
        row.bregman_gap = kkt.bregman_gap
        row.bregman_bound = kkt.bregman_bound
        row.delta_bound = kkt.delta_bound
    return row


def run_training(config: RunConfig, train: Optional[Dataset] = None,
                 test: Optional[Dataset] = None) -> RunLog:
    """Train per the config and return the per-step log.

    Datasets may be passed in to reuse fixtures; otherwise they are
    materialized from the config's data source. Raises DivergenceError on
    non-finite loss or parameters, and InvariantViolation in strict mode.
    """
    if train is None:
        train, test = resolve_data(config)
    model, loss = config.model, config.loss
    init = config.init
    if init.seed == 0 and config.seed != 0:
        init = replace(init, seed=derive_seeds(config.seed, 3)[2])
    theta = init_params(model, init)

    opt_spec = config.optimizer
    state = OptimizerState.fresh()
    log = RunLog(train_m=train.m)
    frozen = False
    work = Workspace(model, train.m)

    for step in range(config.epochs + 1):
        if not theta.allfinite():
            raise DivergenceError(step, "non-finite parameters")
        ev = evaluate(loss, model, theta, train, work)
        if not np.isfinite(ev.q).all():
            raise DivergenceError(step, "non-finite margins")
        if not np.isfinite(ev.log_loss):
            raise DivergenceError(step, "non-finite loss")

        if step % config.log_every == 0 or step == config.epochs:
            rep = margin_report(ev, config.diagnostics_norms[0])
            if log.t0_step is None and detect_separation(ev.log_loss, loss):
                log.t0_step = step
                # freeze gamma_tilde(t0) before the row's bounds are formed
                log.gamma_tilde_t0 = rep.soft_margin
                opt_spec, state = apply_switch(opt_spec, state, True)
            log.rows.append(_build_row(step, config, ev, rep, test,
                                       log.t0_step is not None,
                                       log.gamma_tilde_t0, frozen))

        if step == config.epochs:
            break
        if ev.log_loss < FREEZE_LOG_LOSS:
            frozen = True
        if frozen:
            continue
        g_hat, log_scale = ev.subgradient
        theta, state = take_step(theta, g_hat, state, opt_spec,
                                 log_scale=log_scale)

    log.final_theta = theta
    log.warnings = check_invariants(config, log)
    if config.strict and log.warnings:
        raise InvariantViolation("; ".join(log.warnings))

    if config.output_dir:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        emit_csv(log, out / "run.csv")
        save_checkpoint(out / "final.ckpt", model, theta)
    return log


def check_invariants(config: RunConfig, log: RunLog) -> list[str]:
    """The logged-row invariant battery; returns human-readable violations.

    Checks, on post-separation rows: the soft/hard margin sandwich
    (exponential loss), soft-margin monotonicity up to 1e-6 + 10*eta per
    interval, strictly decreasing log-loss while stepping, the finite-time
    stationarity bounds, nonnegative complementarity, and the alignment
    cap.
    """
    out: list[str] = []
    eta = config.optimizer.step_size
    slack = 1e-6 + 10.0 * eta
    degree = config.model.homogeneity_degree
    post = [r for r in log.rows if r.t0_flag]
    for row in log.rows:
        if np.isfinite(row.alignment) and row.alignment > 1.0 + 1e-10:
            out.append(f"step {row.step}: alignment {row.alignment} > 1")
    for prev, cur in zip(post, post[1:]):
        if cur.soft_margin < prev.soft_margin - slack:
            out.append(f"step {cur.step}: soft margin fell "
                       f"{prev.soft_margin} -> {cur.soft_margin}")
        if not (prev.frozen or cur.frozen) and not cur.log_loss < prev.log_loss:
            out.append(f"step {cur.step}: log-loss did not decrease")
    for row in post:
        if config.loss.kind == EXPONENTIAL and row.q_min > 0:
            lo = row.gamma_algo - math.log(log.train_m) / row.norm_algo**degree
            if not (lo - 1e-10 <= row.soft_margin <= row.gamma_algo + 1e-10):
                out.append(f"step {row.step}: sandwich violated "
                           f"({lo} <= {row.soft_margin} <= {row.gamma_algo})")
        if row.bregman_gap is not None and row.bregman_bound is not None:
            if row.bregman_gap > row.bregman_bound + 1e-8:
                out.append(f"step {row.step}: Bregman gap {row.bregman_gap} "
                           f"exceeds bound {row.bregman_bound}")
        if row.kkt_delta is not None:
            if row.kkt_delta < -1e-12:
                out.append(f"step {row.step}: negative complementarity "
                           f"{row.kkt_delta}")
            if row.delta_bound is not None and row.kkt_delta > row.delta_bound + 1e-8:
                out.append(f"step {row.step}: delta {row.kkt_delta} exceeds "
                           f"bound {row.delta_bound}")
    if post:
        first, last = post[0], log.rows[-1]
        if not last.norm_algo > first.norm_algo and not last.frozen:
            out.append("parameter norm did not grow after separation")
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def emit_csv(log: RunLog, path) -> None:
    """Fixed-order CSV of the logged rows, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for row in log.rows:
            f.write(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f")


def emit_svg(log: RunLog, metrics, axes: Optional[dict] = None, path=None,
             width: int = 800, height: int = 500) -> str:
    """Self-contained SVG line chart of logged metrics against step.

    ``axes`` maps "x"/"y" to "linear" or "log"; points that cannot be
    placed on a log axis (nonpositive values) are skipped with a warning.
    Returns the SVG text; writes it when ``path`` is given.
    """
    axes = axes or {}
    x_log = axes.get("x", "linear") == "log"
    y_log = axes.get("y", "linear") == "log"
    if not log.rows:
        raise ValueError("emit_svg: empty run log")

    margin = 60
    series = {}
    for name in metrics:
        pts = []
        skipped = 0
        for row in log.rows:
            xv, yv = float(row.step), getattr(row, name)
            if yv is None or not np.isfinite(yv):
                continue
            yv = float(yv)
            if (x_log and xv <= 0.0) or (y_log and yv <= 0.0):
                skipped += 1
                continue
            pts.append((math.log10(xv) if x_log else xv,
                        math.log10(yv) if y_log else yv))
        if skipped:
            warnings.warn(f"emit_svg: skipped {skipped} nonpositive points of "
                          f"{name!r} on a log axis")
        series[name] = pts

    all_pts = [p for pts in series.values() for p in pts]
    if not all_pts:
        raise ValueError("emit_svg: no drawable points")
    xs, ys = zip(*all_pts)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def place(p):
        px = margin + (p[0] - x_lo) / x_span * (width - 2 * margin)
        py = height - margin - (p[1] - y_lo) / y_span * (height - 2 * margin)
        return px, py

    def label(v, is_log):
        return f"{10.0**v:.3g}" if is_log else f"{v:.6g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 20}" font-size="12">'
        f'{label(x_lo, x_log)}</text>',
        f'<text x="{width - margin - 30}" y="{height - margin + 20}" '
        f'font-size="12">{label(x_hi, x_log)}</text>',
        f'<text x="{margin - 50}" y="{height - margin}" font-size="12">'
        f'{label(y_lo, y_log)}</text>',
        f'<text x="{margin - 50}" y="{margin + 10}" font-size="12">'
        f'{label(y_hi, y_log)}</text>',
    ]
    for i, (name, pts) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        if pts:
            coords = " ".join(f"{px:.2f},{py:.2f}"
                              for px, py in (place(p) for p in pts))
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = margin + 16 * i
        parts.append(f'<rect x="{width - margin - 130}" y="{ly - 9}" '
                     f'width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{width - margin - 115}" y="{ly}" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    text = "\n".join(parts)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# Flat key/value run-configuration files


_NORM_ALIASES = {"l1": NormSpec.l1, "l2": NormSpec.l2, "linf": NormSpec.linf,
                 "spectral": NormSpec.spectral}


def parse_norm(text: str) -> NormSpec:
    text = text.strip().lower()
    if text.startswith("modular:"):
        parts = [p.strip() for p in text[len("modular:"):].split(",") if p.strip()]
        blocks = []
        for p in parts:
            if p not in _NORM_ALIASES:
                raise ConfigError(f"unknown block norm {p!r}")
            blocks.append(_NORM_ALIASES[p]())
        return NormSpec.modular(blocks)
    if text not in _NORM_ALIASES:
        raise ConfigError(f"unknown norm {text!r}")
    return _NORM_ALIASES[text]()


def _parse_scalar(text: str):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def read_flat_config(path) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = _parse_scalar(value)
    return values


def _optimizer_from_values(v: dict, prefix: str = "") -> OptimizerSpec:
    kind = str(v.get(prefix + "optimizer", "steepest")).lower()
    eta = float(v.get(prefix + "step_size", v.get("step_size", 1e-2)))
    if kind == "steepest":
        method = SteepestMethod(
            norm=parse_norm(str(v.get(prefix + "norm", "l2"))),
            normalized=bool(v.get(prefix + "normalized", False)))
    elif kind == "adam":
        method = AdamMethod(beta1=float(v.get(prefix + "beta1", 0.9)),
                            beta2=float(v.get(prefix + "beta2", 0.999)),
                            eps=float(v.get(prefix + "adam_eps", 1e-8)))
    elif kind == "shampoo":
        method = ShampooMethod(eps_reg=float(v.get(prefix + "shampoo_eps_reg", 0.0)))
    else:
        raise ConfigError(f"unknown optimizer {kind!r}")
    return OptimizerSpec(method=method, step_size=eta)


def config_from_values(values: dict, output_dir: Optional[str] = None) -> RunConfig:
    """Build a RunConfig from flat key/value pairs (see README for keys)."""
    v = dict(values)
    try:
        model_kind = str(v.get("model_kind", "two_layer_relu"))
        input_dim = int(v["input_dim"])
        if model_kind == "linear":
            model = ModelSpec.linear(input_dim)
        else:
            model = ModelSpec.two_layer_relu(
                input_dim, int(v["width"]),
                bool(v.get("freeze_second_layer", False)))
        init = InitSpec(scale=float(v.get("init_scale", 0.01)),
                        scheme=str(v.get("init_scheme", "fan_in_uniform")),
                        seed=int(v.get("init_seed", 0)))
        loss = LossSpec(str(v.get("loss", "exponential")))

        optimizer = _optimizer_from_values(v)
        if v.get("switch_to"):
            sw_values = {"optimizer": v["switch_to"],
                         "norm": v.get("switch_norm", v.get("norm", "l2")),
                         "normalized": v.get("switch_normalized", False),
                         "step_size": v.get("switch_step_size",
                                            v.get("step_size", 1e-2)),
                         "beta1": v.get("beta1", 0.9),
                         "beta2": v.get("beta2", 0.999),
                         "adam_eps": v.get("adam_eps", 1e-8),
                         "shampoo_eps_reg": v.get("shampoo_eps_reg", 0.0)}
            optimizer = replace(optimizer,
                                switch_to=_optimizer_from_values(sw_values))

        data_kind = str(v.get("data_kind", "teacher"))
        if data_kind == "teacher":
            teacher = TeacherSpec(
                input_dim=input_dim,
                width=int(v.get("teacher_k", 4)),
                active_per_neuron=int(v.get("teacher_active", 3)),
                weight_scale=float(v.get("teacher_weight_scale", 1.0)),
                seed=int(v.get("teacher_seed", 1)))
            data = DataSource(kind="teacher", teacher=teacher,
                              train_m=int(v["train_m"]),
                              data_seed=(int(v["data_seed"])
                                         if "data_seed" in v else None),
                              test_m=int(v.get("test_m", 0)))
        elif data_kind == "dataset":
            data = DataSource(kind="dataset", dataset_path=str(v["dataset_path"]))
        elif data_kind == "idx":
            data = DataSource(kind="idx", idx_images=str(v["idx_images"]),
                              idx_labels=str(v["idx_labels"]),
                              digit_a=int(v.get("digit_a", 3)),
                              digit_b=int(v.get("digit_b", 6)),
                              train_m=int(v["train_m"]))
        else:
            raise ConfigError(f"unknown data kind {data_kind!r}")

        epochs = int(v["epochs"])
        log_every = int(v.get("log_every", max(1, epochs // 1000)))
        diag = tuple(parse_norm(p) for p in
                     str(v.get("diagnostics_norms", "l2")).split(",") if p.strip())
        out_dir = output_dir or v.get("output_dir")
        out_dir = os.environ.get("STEEPDESC_OUTPUT_DIR", out_dir) or None
        return RunConfig(model=model, init=init, loss=loss, optimizer=optimizer,
                         data=data, epochs=epochs, log_every=log_every,
                         diagnostics_norms=diag, seed=int(v.get("seed", 0)),
                         output_dir=out_dir, strict=bool(v.get("strict", False)))
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc.args[0]!r}") from exc
    except ConfigError:
        raise
    except ValueError as exc:          # int() or float() of a malformed value
        raise ConfigError(f"malformed config value: {exc}") from exc


def load_config(path) -> RunConfig:
    return config_from_values(read_flat_config(path))
