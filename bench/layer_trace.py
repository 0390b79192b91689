"""Per-layer spans around steepdesc's module boundaries, from outside it.

A layer is a module of the package. Its boundary functions are the public
functions another layer module imports, plus every public function of
``harness``, the top layer the benchmark calls. Modules bind imported names
at import time (``harness`` and ``diagnostics`` each hold their own
``output_margins``), so ``traced`` replaces a boundary function under every
name any steepdesc module binds it to, its home module included, and puts
the originals back on exit.

Spans are aggregated as they close rather than stored: a desk run opens
millions of them. A span's self time is its duration minus the durations of
the spans opened directly inside it; spans of one thread nest, so that is
the time its children cover. A layer's inclusive time is the time at least
one of its spans is open, callees in other layers included. Aggregates are
kept per phase (``setup`` until training starts, then ``loop``).
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from collections import Counter

LAYERS = ("params", "norms", "models", "losses", "optimizers", "diagnostics",
          "harness", "data")
_PACKAGE = "steepdesc"
_LAYER_MODULES = {f"{_PACKAGE}.{name}" for name in LAYERS}
# Functions that run a forward pass, with the matrix products each makes.
FORWARD_PRODUCTS = {"models.forward_batch": 1,
                    "models.weighted_subgradient_sum": 2}


class Tracer:
    """Span aggregates and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "setup"
        # (phase, span name) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = {}
        # (phase, counter name) -> value
        self.counts: Counter = Counter()
        # (phase, layer) -> seconds with at least one span of the layer open
        self.layers: Counter = Counter()
        self._stack: list[list] = []      # open spans: [name, start, child_s]
        self._open: Counter = Counter()   # layer -> its spans now open
        self._forward_keys: set = set()

    def enter(self, name: str) -> None:
        self._open[name.partition(".")[0]] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        key = (self.phase, name)
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        layer = name.partition(".")[0]
        self._open[layer] -= 1
        if not self._open[layer]:
            self.layers[(self.phase, layer)] += duration

    def as_record(self) -> dict:
        """The aggregates as JSON-ready lists of ``[phase, name, ...]``."""
        return {
            "spans": [[*key, *agg] for key, agg in self.spans.items()],
            "counts": [[*key, value] for key, value in self.counts.items()],
            "layers": [[*key, value] for key, value in self.layers.items()],
        }

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.phase, name)] += value

    def forward_pass(self, model, theta, X, products: int) -> None:
        """Count one forward pass X @ W.T and whether this (parameters,
        inputs) pair was seen before. Its work is computed from the shapes:
        ``products`` matrix products of X with a (k, d) operand, their flops
        and the float64 bytes of their operands and results."""
        m, d = X.shape
        k = 1 if model.kind == "linear" else model.width
        self.count("models.forward_passes")
        self.count("models.flops", products * 2 * m * k * d)
        self.count("models.bytes", products * 8 * (m * d + k * d + m * k))
        key = (id(X), *(hash(block.tobytes()) for block in theta.blocks))
        if key not in self._forward_keys:
            self._forward_keys.add(key)
            self.count("models.distinct_forward_passes")


def _unit_direction_label(spec, g):
    return spec.kind


def _take_step_label(theta, g, state, spec, log_scale=0.0):
    return type(spec.method).__name__.removesuffix("Method").lower()


# Boundary functions whose span name carries which variant ran.
_LABELS = {"norms.unit_steepest_direction": _unit_direction_label,
           "optimizers.take_step": _take_step_label}


def _package_modules() -> list[types.ModuleType]:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == _PACKAGE or name.startswith(_PACKAGE + ".")]


def boundary_functions() -> dict:
    """Map each boundary function to its span name ``layer.function``."""
    __import__(_PACKAGE)
    found = {}
    for mod in _package_modules():
        if mod.__name__ not in _LAYER_MODULES:
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            home = value.__module__
            if home not in _LAYER_MODULES:
                continue
            if home != mod.__name__ or home == f"{_PACKAGE}.harness":
                found[value] = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
    return found


def _wrap(fn, name: str, tracer: Tracer):
    enter, exit_ = tracer.enter, tracer.exit
    label = _LABELS.get(name)
    products = FORWARD_PRODUCTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if products and tracer.phase == "loop":
            # the bookkeeping is a span of its own, so it is not charged
            # to the caller's self time
            enter("trace.forward_accounting")
            try:
                tracer.forward_pass(args[0], args[1], args[2], products)
            finally:
                exit_()
        enter(name if label is None else f"{name}.{label(*args, **kwargs)}")
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every boundary call through ``tracer`` while the block runs."""
    from steepdesc.params import ParamVector

    wrappers = {fn: _wrap(fn, name, tracer)
                for fn, name in boundary_functions().items()}
    patched = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])

    post_init = ParamVector.__post_init__

    def counted_post_init(self):
        tracer.count("params.constructions")
        post_init(self)

    ParamVector.__post_init__ = counted_post_init
    try:
        yield tracer
    finally:
        ParamVector.__post_init__ = post_init
        for mod, attr, value in patched:
            setattr(mod, attr, value)
