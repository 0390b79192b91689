"""One train-equivalent run in a fresh process: what ``steepdesc train`` does.

    python3 bench/rep.py --config <derived .cfg> --trace <0|1>

Calls ``load_config``, ``resolve_data`` and ``run_training`` (which writes
``run.csv`` and ``final.ckpt``), timed from here, then repeats the set-up
(``SETUP_SPAN_S``), and prints one JSON object.
The package must come from the ``src/`` next to this directory. With
``--trace 1`` the calls run under ``layer_trace.traced`` and the object
carries the span aggregates and counters.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A set-up shorter than a tenth of this is repeated after the run until all
# set-ups together take this long, and their mean is reported. The machine's
# speed switches between fast and slow phases lasting 0.1-1 s, so one 4 ms
# set-up (late-phase) lands in a single phase, while 0.2 s of them averages
# over phases. Longer set-ups (desk, fullscale-500) are not repeated, so the
# repeats do not take time from the measured runs.
SETUP_SPAN_S = 0.2


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it is not found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(config_path: str, trace: bool) -> dict:
    # train would honour this variable over the config's output directory
    os.environ.pop("STEEPDESC_OUTPUT_DIR", None)
    from steepdesc import harness, models

    src = (ROOT / "src").resolve()
    if src not in Path(harness.__file__).resolve().parents:
        raise RuntimeError(f"steepdesc imported from {harness.__file__}, "
                           f"not from {src}")

    tracer = None
    guard = contextlib.nullcontext()
    if trace:
        import layer_trace
        tracer = layer_trace.Tracer()
        guard = layer_trace.traced(tracer)

    with guard:
        # set-up ends when the initial parameters exist: the first step is
        # next. init_params is called once, from run_training.
        init_params = harness.init_params
        init_done, init_args = [], []

        def timed_init(*args, **kwargs):
            theta = init_params(*args, **kwargs)
            init_done.append(time.perf_counter())
            init_args.append((args, kwargs))
            return theta

        harness.init_params = timed_init
        try:
            t0 = time.perf_counter()
            config = harness.load_config(config_path)
            train, test = harness.resolve_data(config)
            if tracer is not None:
                tracer.phase = "loop"
            t_train = time.perf_counter()
            log = harness.run_training(config, train, test)
            t_end = time.perf_counter()
        finally:
            harness.init_params = init_params

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [init_done[0] - t0]
    while setups[0] < SETUP_SPAN_S / 10 and sum(setups) < SETUP_SPAN_S:
        t_setup = time.perf_counter()
        again = harness.load_config(config_path)
        harness.resolve_data(again)
        models.init_params(*init_args[0][0], **init_args[0][1])
        setups.append(time.perf_counter() - t_setup)

    out = Path(config.output_dir)
    _, theta = models.load_checkpoint(out / "final.ckpt")
    record = {
        "setup_s": sum(setups) / len(setups),
        "setups": len(setups),
        "train_s": t_end - t_train,
        "wall_s": t_end - t0,
        "steps": config.epochs,
        "rows": len(log.rows),
        "output_dir": str(out),
        "checkpoint_matches": bool(theta.flat().tobytes()
                                   == log.final_theta.flat().tobytes()),
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        record.update(tracer.as_record())
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.config, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
