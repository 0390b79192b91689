"""The benchmark's workloads, each derived from a shipped config.

A workload is a list of train-equivalent runs. Each run names a config in
``configs/`` and the keys this benchmark overrides in it; the benchmark
writes the derived config into its own output directory, with the workload
seed and an output directory of its own appended, and the program loads that
file with ``load_config``. Nothing under ``configs/`` is changed.
"""
from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

# The seed the shipped configs carry; the pinned digests are taken under it.
DEFAULT_SEED = 1


class ConfigRun(NamedTuple):
    label: str        # names the run's outputs and its pinned digests
    base: str         # stem of the shipped config under configs/
    overrides: dict   # keys this benchmark sets on top of the shipped config


WORKLOADS = {
    # Python-overhead bound: ~130 us/step of params, norms and optimizer
    # glue; desk_sd freezes early, so most of its steps are forward + loss.
    "desk": (ConfigRun("desk_gd", "desk_gd", {}),
             ConfigRun("desk_cd", "desk_cd", {}),
             ConfigRun("desk_sd", "desk_sd", {})),
    # BLAS bound: forward and subgradient over k'=1024, m=250; 20,000 test
    # points make test accuracy and set-up (pinned-PRNG data) heavy.
    "fullscale-500": (ConfigRun("fullscale-500", "fullscale_gd",
                                {"epochs": 500}),),
    # The paper's regime: a margin and KKT report on every step after
    # separation (step 96), 3,001 CSV rows, no test set.
    "late-phase": (ConfigRun("late-phase", "desk_gd",
                             {"log_every": 1, "test_m": 0, "epochs": 3000}),),
    # The only workload on the Shampoo path (switches at separation): a
    # per-step eigh of 64x64 and 16x16 accumulators.
    "shampoo-switch": (ConfigRun("shampoo-switch", "desk_gd",
                                 {"switch_to": "shampoo", "log_every": 20,
                                  "test_m": 0, "epochs": 600}),),
}


def write_config(root: Path, run: ConfigRun, seed: int, cfg_path: Path,
                 output_dir: str) -> Path:
    """Write ``run``'s derived config to ``cfg_path`` and return it.

    The shipped text is copied verbatim and the overrides follow it; the
    flat config reader keeps the last value of a repeated key.
    """
    text = (root / "configs" / f"{run.base}.cfg").read_text(encoding="utf-8")
    values = dict(run.overrides, seed=seed, output_dir=output_dir)
    lines = [text.rstrip("\n"), "", "# benchmark overrides"]
    lines += [f"{key} = {value}" for key, value in values.items()]
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg_path
