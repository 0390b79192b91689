"""Run configuration, the full-batch training loop, logging, and emission.

One run is one sequential loop: full-batch subgradient, optimizer step,
and every ``log_every`` steps a margin report plus, after the separation
step t0, a KKT report. At t0 the run switches to the optimizer's
``switch_to`` spec, if it names one, with fresh accumulators. Rows land
in a RunLog whose CSV serialization is byte-stable for a fixed config and
seed; ``check_invariants`` checks each row as the run makes it.

Separation time t0 is the first *logged* step whose log-loss is below the
loss threshold; its soft margin is frozen for the finite-time bounds.
Once log-loss falls below -700 the parameters freeze (logging continues);
``RunLog.freeze_step`` is that step, and from there on only logged steps
evaluate. It keeps raw gradient magnitudes representable for the raw
steepest, Adam and Shampoo steps, which form exp(log_scale); normalized
steepest steps never do, so for them the freeze is a scope limit.

Every key of a flat run config is parsed by its rule in one key table,
used by the run or not, before the specs are built from the parsed values.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .data import (Dataset, TeacherSpec, gen_teacher, load_dataset, load_idx,
                   sample_dataset)
from .diagnostics import MarginReport, kkt_residuals, margin_report
from .errors import (ConfigError, DivergenceError, InvariantViolation,
                     ShapeMismatchError)
from .losses import (EXPONENTIAL, LOGISTIC, Evaluation, LossSpec, evaluate,
                     output_margins)
from .models import (COORDINATE_UNIFORM, FAN_IN_UNIFORM, LINEAR, TWO_LAYER_RELU,
                     InitSpec, ModelSpec, init_params, save_checkpoint)
from .norms import NormSpec
from .optimizers import (AdamMethod, OptimizerSpec, OptimizerState,
                         ShampooMethod, SteepestMethod, take_step)
from .params import ParamVector
from .rng import splitmix64_stream

FREEZE_LOG_LOSS = -700.0
ACCURACY_CHUNK = 1024     # evaluate_accuracy's block when given no buffer

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
    dataset_path: Optional[str] = None
    idx_images: Optional[str] = None
    idx_labels: Optional[str] = None
    digit_a: int = 3
    digit_b: int = 6

    def __post_init__(self):
        if self.kind not in ("teacher", "dataset", "idx"):
            raise ConfigError(f"unknown data kind {self.kind!r}")
        if self.test_m < 0:
            raise ConfigError("test_m must be >= 0")
        if self.test_m > 0 and self.kind != "teacher":
            raise ConfigError(f"test_m > 0 needs teacher data: {self.kind} "
                              f"data has no test set")
        if self.digit_a == self.digit_b:
            raise ConfigError(f"digit_a and digit_b are both {self.digit_a}: "
                              f"idx data needs two classes")
        if self.kind == "teacher" and (self.teacher is None or self.train_m < 1):
            raise ConfigError("teacher data needs a TeacherSpec and train_m >= 1")
        if self.kind == "dataset" and not self.dataset_path:
            raise ConfigError("dataset data needs dataset_path")
        if self.kind == "idx" and not (self.idx_images and self.idx_labels
                                       and self.train_m >= 1):
            raise ConfigError("idx data needs image/label paths and train_m")
        if self.kind == "dataset" and self.train_m:
            raise ConfigError(f"train_m = {self.train_m} on dataset data: the "
                              "whole file is the train set")
        if self.kind != "teacher" and self.data_seed is not None:
            raise ConfigError(f"data_seed on {self.kind} data: only a teacher "
                              "draws its data")


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    init: InitSpec
    loss: LossSpec
    optimizer: OptimizerSpec
    data: DataSource
    epochs: int
    log_every: int
    diagnostics_norm: NormSpec      # the algorithm norm the diagnostics use
    seed: int = 0
    output_dir: Optional[str] = None
    strict: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not (1 <= self.log_every <= self.epochs):
            raise ConfigError("log_every must satisfy 1 <= log_every <= epochs")


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
    freeze_step: Optional[int] = None    # first step that no longer moves theta
    final_theta: Optional[ParamVector] = None
    warnings: list = field(default_factory=list)


def resolve_data(config: RunConfig) -> tuple[Dataset, Optional[Dataset]]:
    """Materialize the train (and optional test) datasets for a run."""
    src = config.data
    sub = splitmix64_stream(config.seed, 3)
    if src.kind == "teacher":
        teacher = gen_teacher(src.teacher)
        tmeta = {"teacher_seed": str(src.teacher.seed)}
        data_seed = src.data_seed if src.data_seed is not None else sub[0]
        train = sample_dataset(teacher, src.train_m, data_seed, tmeta)
        test = None
        if src.test_m > 0:
            test = sample_dataset(teacher, src.test_m, sub[1], tmeta)
        return train, test
    if src.kind == "dataset":
        return load_dataset(src.dataset_path), None
    train = load_idx(src.idx_images, src.idx_labels, src.digit_a, src.digit_b,
                     src.train_m)
    return train, None


def evaluate_accuracy(model: ModelSpec, theta: ParamVector, data,
                      hidden: np.ndarray | None = None) -> float:
    """Fraction of examples with y*f > 0; exact zeros count as errors.
    Rows are scored ``len(hidden)`` at a time through the (rows, width)
    scratch buffer ``hidden``, a new one of at most ``ACCURACY_CHUNK`` rows
    when not given."""
    if hidden is None:
        hidden = np.empty((min(ACCURACY_CHUNK, len(data.X)), model.width))
    q = output_margins(model, theta, data, hidden)
    return float((q > 0.0).mean())


def _build_row(step: int, ev: Evaluation, rep: MarginReport,
               test: Optional[Dataset], t0_known: bool,
               gamma_tilde_t0: Optional[float], frozen: bool,
               hidden: Optional[np.ndarray] = None) -> LogRow:
    row = LogRow(
        step=step,
        log_loss=rep.log_loss,
        train_acc=float(np.count_nonzero(ev.q > 0.0) / len(ev.q)),
        test_acc=(evaluate_accuracy(ev.model, ev.theta, test, hidden)
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
        norm_algo=rep.param_norms[rep.algo_norm.label()],
        frozen=frozen,
    )
    if t0_known and rep.q_min > 0.0:
        kkt = kkt_residuals(ev, rep, gamma_tilde_t0=gamma_tilde_t0)
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
    non-finite loss or parameters. Invariant findings go to ``log.warnings``
    in step order, or in strict mode the first raises InvariantViolation.
    """
    if train is None:
        train, test = resolve_data(config)
    model, loss = config.model, config.loss
    for name, data in (("train", train), ("test", test)):
        if data is not None and data.d != model.input_dim:
            raise ShapeMismatchError(f"{name} inputs must have shape "
                                     f"(m, {model.input_dim}), got {data.X.shape}")
    init = config.init
    if init.seed == 0 and config.seed != 0:
        init = replace(init, seed=splitmix64_stream(config.seed, 3)[2])
    theta = init_params(model, init)

    opt_spec = config.optimizer
    state = OptimizerState()
    log, t0_row = RunLog(), None
    # reused by every evaluate, then by the logged row's test accuracy:
    # nothing an Evaluation holds is a view of it
    hidden = np.empty((train.m, model.width))

    for step in range(config.epochs + 1):
        logged = step % config.log_every == 0 or step == config.epochs
        frozen = log.freeze_step is not None
        if frozen and not logged:
            continue            # theta is fixed: only logged steps evaluate
        if not theta.allfinite():
            raise DivergenceError(step, "non-finite parameters")
        ev = evaluate(loss, model, theta, train, hidden)
        if not np.isfinite(ev.q).all():
            raise DivergenceError(step, "non-finite margins")
        if not math.isfinite(ev.log_loss):
            raise DivergenceError(step, "non-finite loss")

        if logged:
            rep = margin_report(ev, config.diagnostics_norm)
            if log.t0_step is None and rep.separated:
                log.t0_step = step
                # freeze gamma_tilde(t0) before the row's bounds are formed
                log.gamma_tilde_t0 = rep.soft_margin
                if opt_spec.switch_to is not None:
                    opt_spec, state = opt_spec.switch_to, OptimizerState()
            row = _build_row(step, ev, rep, test, log.t0_step is not None,
                             log.gamma_tilde_t0, frozen, hidden)
            prev = log.rows[-1] if log.rows else None
            found = check_invariants(config, row, prev, opt_spec.step_size, train.m)
            if config.strict and found:
                raise InvariantViolation("; ".join(found))
            log.warnings += found
            log.rows.append(row)
            if step == log.t0_step:
                t0_row = row

        if frozen or step == config.epochs:
            continue
        if ev.log_loss < FREEZE_LOG_LOSS:
            log.freeze_step = step
            continue
        g_hat, log_scale = ev.subgradient
        theta, state = take_step(theta, g_hat, state, opt_spec,
                                 log_scale=log_scale)

    log.final_theta = theta
    last = log.rows[-1]
    if t0_row is not None and not (last.norm_algo > t0_row.norm_algo or last.frozen):
        log.warnings.append("parameter norm did not grow after separation")
    if config.strict and log.warnings:      # the norm check's: rows raised their own
        raise InvariantViolation("; ".join(log.warnings))

    if config.output_dir:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        emit_csv(log, out / "run.csv")
        save_checkpoint(out / "final.ckpt", model, theta)
    return log


def check_invariants(config: RunConfig, row: LogRow, prev: Optional[LogRow],
                     eta: float, m: int) -> list[str]:
    """The invariant battery on one logged row and the row ``prev`` logged
    before it (None for the first); returns human-readable violations.

    Checks the alignment cap and, on post-separation rows: soft-margin
    monotonicity up to 1e-6 + 10*eta (``eta`` the step size that stepped
    since ``prev``), strictly decreasing log-loss while stepping, the
    soft/hard margin sandwich (exponential loss, ``m`` training points), the
    finite-time stationarity bounds, and nonnegative complementarity.
    """
    out: list[str] = []
    if np.isfinite(row.alignment) and row.alignment > 1.0 + 1e-10:
        out.append(f"step {row.step}: alignment {row.alignment} > 1")
    if prev is not None and prev.t0_flag:
        if row.soft_margin < prev.soft_margin - (1e-6 + 10.0 * eta):
            out.append(f"step {row.step}: soft margin fell "
                       f"{prev.soft_margin} -> {row.soft_margin}")
        if not (prev.frozen or row.frozen) and not row.log_loss < prev.log_loss:
            out.append(f"step {row.step}: log-loss did not decrease")
    if row.t0_flag and config.loss.kind == EXPONENTIAL and row.q_min > 0:
        degree = config.model.homogeneity_degree
        lo = row.gamma_algo - math.log(m) / row.norm_algo**degree
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
    return out


def _field_format(value) -> str:
    if value is None:
        return "%.0s"            # prints nothing
    return "%d" if isinstance(value, (int, np.integer)) else "%.17g"


def emit_csv(log: RunLog, path) -> None:
    """Fixed-order CSV of the logged rows, 17 significant digits: None is
    empty, a bool 1 or 0. A row is one %-format over its column values,
    built once per pattern of value types."""
    formats, values_of = {}, operator.attrgetter(*CSV_COLUMNS)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for row in log.rows:
            values = values_of(row)
            key = tuple(map(type, values))
            fmt = formats.get(key)
            if fmt is None:
                fmt = formats[key] = ",".join(map(_field_format, values)) + "\n"
            f.write(fmt % values)


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f")
_SVG_WIDTH, _SVG_HEIGHT = 800, 500


def emit_svg(log: RunLog, metrics, log_y: bool = False, path=None) -> str:
    """Self-contained SVG line chart of logged metrics against step.

    With ``log_y`` the y axis is log10: nonpositive values cannot be placed
    on it and are skipped with a warning. A ``ConfigError`` names the
    columns when no point is left, and an empty log is one too.
    Returns the SVG text; writes it when ``path`` is given.
    """
    if not log.rows:
        raise ConfigError("emit_svg: empty run log")

    margin, width, height = 60, _SVG_WIDTH, _SVG_HEIGHT
    series = {}
    for name in metrics:
        pts = []
        skipped = 0
        for row in log.rows:
            yv = getattr(row, name)
            if yv is None or not np.isfinite(yv):
                continue
            yv = float(yv)
            if log_y and yv <= 0.0:
                skipped += 1
                continue
            pts.append((float(row.step), math.log10(yv) if log_y else yv))
        if skipped:
            warnings.warn(f"emit_svg: skipped {skipped} nonpositive points of "
                          f"{name!r} on a log axis")
        series[name] = pts

    all_pts = [p for pts in series.values() for p in pts]
    if not all_pts:
        raise ConfigError(f"emit_svg: no drawable points in column(s) "
                          f"{', '.join(metrics)}")
    xs, ys = zip(*all_pts)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def place(p):
        px = margin + (p[0] - x_lo) / x_span * (width - 2 * margin)
        py = height - margin - (p[1] - y_lo) / y_span * (height - 2 * margin)
        return px, py

    def y_label(v):
        return f"{10.0**v:.3g}" if log_y else f"{v:.6g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 20}" font-size="12">'
        f'{x_lo:.6g}</text>',
        f'<text x="{width - margin - 30}" y="{height - margin + 20}" '
        f'font-size="12">{x_hi:.6g}</text>',
        f'<text x="{margin - 50}" y="{height - margin}" font-size="12">'
        f'{y_label(y_lo)}</text>',
        f'<text x="{margin - 50}" y="{margin + 10}" font-size="12">'
        f'{y_label(y_hi)}</text>',
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


def parse_norm(text: str) -> NormSpec:
    """``l1``, ``l2``, ``linf``, ``spectral`` or ``modular:<b1>,<b2>,...``."""
    text = text.strip().lower()
    if text.startswith("modular:"):
        return NormSpec.modular([parse_norm(block) for block in
                                 text[len("modular:"):].split(",") if block.strip()])
    return NormSpec(text)


def read_flat_config(path) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment. A value is
    its text, unquoted, or a bare true/false as a bool: numbers are left
    to the key's rule in ``config_from_values``."""
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] == '"':
            value = value[1:-1]
        elif value.lower() in ("true", "false"):
            value = value.lower() == "true"
        values[key.strip()] = value
    return values


def _flag(key: str, value) -> bool:
    """true or false: only a parsed true/false (a Python bool) is accepted."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _integer(key: str, value) -> int:
    """An integer, or an integral number such as 1e3; not a bool or a
    fraction. Text is read by int() first, so a large integer stays exact."""
    try:
        if isinstance(value, str):
            try:
                return int(value)                # "1_000" included
            except ValueError:
                value = float(value)             # "1e3"; "abc" raises
        if not isinstance(value, bool) and float(value).is_integer():
            return int(value)                    # not a fraction, inf or nan
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _real(key: str, value) -> float:
    """A number, as a float; a bool is not read as 0 or 1."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):   # float("abc"), float(10**400)
        pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _text(key: str, value) -> str:
    """A path or a name, as written; not a bool."""
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a path or name, got {value!r}")
    return str(value)


def _norm(key: str, value) -> NormSpec:
    return parse_norm(str(value))


def _choice(*names: str):
    """The rule of a key that takes one of ``names``, in any case."""
    def parse(key: str, value) -> str:
        if str(value).lower() not in names:
            raise ConfigError(f"{key} must be one of {', '.join(names)}, got {value!r}")
        return str(value).lower()
    return parse


_OPTIMIZER_KIND = _choice("steepest", "adam", "shampoo")

# Each config key's parser and default, grouped as the README lists them. A
# None default is an absent key: required where a branch reads it with
# p[key], optional where with p.get(key).
_TABLE = {
    "model": {"model_kind": (_choice(LINEAR, TWO_LAYER_RELU), TWO_LAYER_RELU),
              "input_dim": (_integer, None), "width": (_integer, None),
              "freeze_second_layer": (_flag, False)},
    "init": {"init_scale": (_real, 0.01),
             "init_scheme": (_choice(FAN_IN_UNIFORM, COORDINATE_UNIFORM),
                             FAN_IN_UNIFORM),
             "init_seed": (_integer, 0)},
    "loss": {"loss": (_choice(EXPONENTIAL, LOGISTIC), EXPONENTIAL)},
    "optimizer": {"optimizer": (_OPTIMIZER_KIND, "steepest"),
                  "norm": (_norm, NormSpec.l2()), "normalized": (_flag, False),
                  "step_size": (_real, 1e-2), "beta1": (_real, 0.9),
                  "beta2": (_real, 0.999), "adam_eps": (_real, 1e-8),
                  "shampoo_eps_reg": (_real, 0.0)},
    # an absent switch_norm or switch_step_size is the main optimizer's
    "switch rule": {"switch_to": (_OPTIMIZER_KIND, None),
                    "switch_norm": (_norm, None),
                    "switch_normalized": (_flag, False),
                    "switch_step_size": (_real, None)},
    "data": {"data_kind": (_choice("teacher", "dataset", "idx"), "teacher"),
             "teacher_k": (_integer, 4), "teacher_active": (_integer, 3),
             "teacher_weight_scale": (_real, 1.0), "teacher_seed": (_integer, 1),
             "train_m": (_integer, None), "test_m": (_integer, 0),
             "data_seed": (_integer, None), "dataset_path": (_text, None),
             "idx_images": (_text, None), "idx_labels": (_text, None),
             "digit_a": (_integer, 3), "digit_b": (_integer, 6)},
    # an absent log_every is epochs/1000
    "run": {"epochs": (_integer, None), "log_every": (_integer, None),
            "diagnostics_norms": (_norm, NormSpec.l2()), "seed": (_integer, 0),
            "output_dir": (_text, None), "strict": (_flag, False)},
}
_KEYS = {key: rule for group in _TABLE.values() for key, rule in group.items()}
CONFIG_KEYS = frozenset(_KEYS)


def _optimizer(kind: str, norm: NormSpec, normalized: bool, step_size: float,
               adam: AdamMethod, shampoo: ShampooMethod) -> OptimizerSpec:
    """The optimizer ``kind``, its step size checked by ``OptimizerSpec``."""
    method = {"steepest": SteepestMethod(norm, normalized), "adam": adam,
              "shampoo": shampoo}[kind]
    return OptimizerSpec(method=method, step_size=step_size)


def config_from_values(values: dict) -> RunConfig:
    """Build a RunConfig from flat key/value pairs (``CONFIG_KEYS``, listed
    in the README). Every key present is parsed by its rule, whether or not
    the config uses it; an unknown key or a malformed value is a
    ``ConfigError``."""
    unknown = sorted(set(values) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(unknown)}")
    p = {key: default for key, (_, default) in _KEYS.items() if default is not None}
    p.update((key, _KEYS[key][0](key, value)) for key, value in values.items())
    try:
        input_dim, kind = p["input_dim"], p["data_kind"]
        model = (ModelSpec.linear(input_dim) if p["model_kind"] == LINEAR else
                 ModelSpec.two_layer_relu(input_dim, p["width"],
                                          p["freeze_second_layer"]))
        # Adam's and Shampoo's constants and the switch's step size are
        # checked by the specs that hold them, whichever optimizer runs.
        adam = AdamMethod(p["beta1"], p["beta2"], p["adam_eps"])
        shampoo = ShampooMethod(p["shampoo_eps_reg"])
        optimizer = _optimizer(p["optimizer"], p["norm"], p["normalized"],
                               p["step_size"], adam, shampoo)
        switch = _optimizer(p.get("switch_to", "steepest"),
                            p.get("switch_norm", p["norm"]), p["switch_normalized"],
                            p.get("switch_step_size", p["step_size"]), adam, shampoo)
        if "switch_to" in p:
            optimizer = replace(optimizer, switch_to=switch)
        # built on every config, so the teacher keys' ranges are checked
        teacher = TeacherSpec(input_dim, p["teacher_k"], p["teacher_active"],
                              p["teacher_weight_scale"], p["teacher_seed"])
        data = DataSource(kind, teacher if kind == "teacher" else None,
                          train_m=p.get("train_m", 0),
                          data_seed=p.get("data_seed"), test_m=p["test_m"],
                          dataset_path=p.get("dataset_path"),
                          idx_images=p.get("idx_images"),
                          idx_labels=p.get("idx_labels"),
                          digit_a=p["digit_a"], digit_b=p["digit_b"])
        epochs = p["epochs"]
        return RunConfig(model=model, loss=LossSpec(p["loss"]),
                         init=InitSpec(p["init_scale"], p["init_scheme"],
                                       p["init_seed"]),
                         optimizer=optimizer, data=data, epochs=epochs,
                         log_every=p.get("log_every", max(1, epochs // 1000)),
                         diagnostics_norm=p["diagnostics_norms"], seed=p["seed"],
                         output_dir=p.get("output_dir") or None,
                         strict=p["strict"])
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc.args[0]!r}") from exc


def load_config(path) -> RunConfig:
    return config_from_values(read_flat_config(path))
