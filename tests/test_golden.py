"""Golden trajectories: byte digests of short desk-shape runs and of the
pinned-PRNG data and initialization they start from.

Each case is a shipped ``configs/desk_*.cfg`` with a few keys overridden,
run for 2,000 steps (Shampoo, with its per-step eigendecompositions, for
400) without a test set and logged every 20 steps, in strict mode, so an
invariant finding on any row fails the case; the ``late_phase`` case runs
400 steps with a row on every step. Step sizes are raised
where the shipped one does not separate that soon, and the frozen-second-layer
cases start from a larger init for the same reason, so every case has rows
past separation and runs the KKT diagnostics. The SHA-256 of
``run.csv`` and ``final.ckpt`` is pinned: a refactor that keeps the numbers
keeps the bytes. The digests are the same under one and two BLAS threads at
these shapes; ``test_digests_do_not_depend_on_blas_threads`` reruns one case
in a subprocess under each. Re-pinning a digest changes a check and is written up in
CHANGES.md.

The data digests cover ``sample_dataset`` on the full-scale teacher over
4,000 rows (several sampling chunks) and on a d=5, width-1, one-coordinate
teacher that rejects about half its draws (rejections straddle chunk
boundaries, and odd d discards a Gaussian per row), and ``init_params`` of
the full-scale model.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steepdesc
from steepdesc.data import TeacherSpec, gen_teacher, sample_dataset
from steepdesc.harness import config_from_values, read_flat_config, run_training
from steepdesc.models import InitSpec, ModelSpec, init_params
from steepdesc.rng import splitmix64_stream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SHORT = {"epochs": 2000, "log_every": 20, "test_m": 0, "strict": True}

CASES = {
    "desk_gd": ("desk_gd", {}),
    "desk_cd": ("desk_cd", {"step_size": 0.02}),
    "desk_sd": ("desk_sd", {}),
    "adam": ("desk_gd", {"optimizer": "adam"}),
    "shampoo": ("desk_gd", {"optimizer": "shampoo", "step_size": 0.1,
                            "epochs": 400}),
    "switch_adam": ("desk_gd", {"switch_to": "adam"}),
    # a frozen second layer separates only from a larger init (step 1,640)
    "frozen_sd": ("desk_sd", {"freeze_second_layer": True, "init_scale": 1.0}),
    # per-block spectral/l2 steps and diagnostics (separates at step 260)
    "modular_gd": ("desk_gd", {"norm": "modular:spectral,l2",
                               "diagnostics_norms": "modular:spectral,l2",
                               "normalized": True}),
    # per-block SVD subgradient and nuclear dual on W; u, one column, takes
    # l2's norm and faces, so the bytes are modular_gd's (separates at step 260)
    "spectral_gd": ("desk_gd", {"norm": "spectral",
                                "diagnostics_norms": "spectral",
                                "normalized": True}),
    # the logistic phi_inverse and log-weight branches (separates at step 160)
    "logistic_gd": ("desk_gd", {"loss": "logistic"}),
    # a per-block norm over the trainable blocks only: spectral steps and
    # diagnostics with a frozen second layer (separates at step 620)
    "frozen_spectral": ("desk_gd", {"freeze_second_layer": True,
                                    "init_scale": 1.0, "norm": "spectral",
                                    "diagnostics_norms": "spectral",
                                    "normalized": True, "step_size": 0.1}),
    # the paper's late phase: a margin and KKT row on every step, 305 of
    # them past separation (step 96) on consecutive steps
    "late_phase": ("desk_gd", {"log_every": 1, "epochs": 400}),
}

GOLDEN = {
    "desk_gd": {
        "run.csv": "221507f0333b7398d58ad0f30cdefbc34f9f66988a3b3bda9382729ddf4876ad",
        "final.ckpt": "485b09e49a2fd5be7595edc831537ed62a1403d9d14ae2338a82a2dd8e4e8a44"},
    "desk_cd": {
        "run.csv": "ad7dc7f64d85ede4c87c45b696c8a5e938b81d80f370542bd39ca34787f02680",
        "final.ckpt": "5f8e3dad05fa73b29278b6560d0a3499adbb3ef61df7b4ab78d456c2f863fdc9"},
    "desk_sd": {
        "run.csv": "9d34545cf1c312aee54168f74d5ed7d3ac5a004002593b4f66e35175d47ebcdc",
        "final.ckpt": "1b460681a41c6ba138ddd0545b9ccfdb674c60794de7e619ea6bdf6e2f0fc3f3"},
    "adam": {
        "run.csv": "8ae79900beb1254ec7a1b4d3e7d33d47103a11da490b1fc1c2395d51d8aa0a6d",
        "final.ckpt": "ddf06534b4fde3dba94939b5d7fd1790f4c16c3e9493308d8a0c6aba1da89b6c"},
    "shampoo": {
        "run.csv": "3b64798907879bbae154f1314d9a986585bdd3172a1ebac56206e76d1316d8d9",
        "final.ckpt": "3f3910c434e5fd6f6348dcca4c164df02bc3fd44157ed0969f89f436dc71c248"},
    "switch_adam": {
        "run.csv": "8bf3748271292075d0a75d802ce96ee1d17d03f90f56659b6c4de21042abf22d",
        "final.ckpt": "19fdd4579d8a827d43ceb366d93bacf93a9fa604cdf6f9a603caafc379fce4c4"},
    "frozen_sd": {
        "run.csv": "eba2b0d14216d2a346ebb52eb671914e9f5316e82de1bcee969af70fdcc9260a",
        "final.ckpt": "299b32b86e58e728c56b9968b35370656b8dcd8db5addc0745500f612408a0c8"},
    "modular_gd": {
        "run.csv": "f74b4cf62ef22ea2f09fa46f76465e7fe5b756c1cc5ac2cf1fc7c88e9b3031c8",
        "final.ckpt": "e48b7696150b9e0595fe1857228f3816e1cd7d14aabf6b27dadfc67b24dc95ee"},
    "spectral_gd": {
        "run.csv": "f74b4cf62ef22ea2f09fa46f76465e7fe5b756c1cc5ac2cf1fc7c88e9b3031c8",
        "final.ckpt": "e48b7696150b9e0595fe1857228f3816e1cd7d14aabf6b27dadfc67b24dc95ee"},
    "logistic_gd": {
        "run.csv": "c9dcf4ddec626d587c030667a037f4804e745bb6f4c29cc03d794c9da8d68974",
        "final.ckpt": "b93ad5ab69698800368ff586f8f85660d7c541ff6a951c6e56ab132416388ce6"},
    "frozen_spectral": {
        "run.csv": "629d149ad1231062abb02faa8b94edb7af6d3495d6abbda004e497fb2a2c824a",
        "final.ckpt": "422204ca715acf9dffac3132570740a9b88480f09b8b708fe50e88a612bb6408"},
    "late_phase": {
        "run.csv": "c265a3d0f8899e8b1dc56b22c5223b44b352f4dcc97a5fbca86f6143b1d5a701",
        "final.ckpt": "ccd852ec89951a4df98f132ca43622b6c20f117bea89306dec76857eee9adab6"},
}


def golden_config(case: str, out: Path):
    base, overrides = CASES[case]
    values = read_flat_config(CONFIGS / f"{base}.cfg")
    values.update(SHORT, **overrides, output_dir=str(out))
    return config_from_values(values)


def run_digests(case: str, out: Path) -> dict:
    run_training(golden_config(case, out))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("run.csv", "final.ckpt")}


@pytest.mark.parametrize("case", sorted(CASES))
def test_digests_match_the_pins(case, tmp_path):
    assert run_digests(case, tmp_path / case) == GOLDEN[case]


@pytest.mark.parametrize("case", ["desk_sd", "late_phase", "modular_gd",
                                  "spectral_gd"])
def test_bregman_gap_is_its_closed_form(case, tmp_path):
    """On every post-separation row the logged Bregman gap equals
    ||theta~||^2 (1 - alignment), with ||theta~|| = norm_algo q_min^(-1/L):
    the multipliers make ||s||* = ||theta~||, and the fixed subgradient k
    has ||k||* = ||theta~|| and <theta~, k> = ||theta~||^2. The tolerance,
    1e-12 ||theta~||^2, leaves room for the few units of rounding of a gap
    taken as a difference of terms of size ||theta~||^2 / 2."""
    config = golden_config(case, tmp_path / case)
    rows = [row for row in run_training(config).rows if row.bregman_gap is not None]
    assert rows
    degree = config.model.homogeneity_degree
    for row in rows:
        sq = (row.norm_algo * row.q_min ** (-1.0 / degree)) ** 2
        assert abs(row.bregman_gap - sq * (1.0 - row.alignment)) <= 1e-12 * sq, row.step


@pytest.mark.parametrize("threads", ["1", "2"])
def test_digests_do_not_depend_on_blas_threads(threads, tmp_path):
    """BLAS reads its thread count at start-up, so each count gets a fresh
    interpreter that runs ``run_digests`` from this file."""
    src = str(Path(steepdesc.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
    code = ("import json, sys; from pathlib import Path; "
            "from test_golden import run_digests; "
            "print(json.dumps(run_digests('desk_gd', Path(sys.argv[1]))))")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "desk_gd")],
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == GOLDEN["desk_gd"]


DATA_GOLDEN = {
    "fullscale_teacher": "33b79a5922d413409a97a897f65cdc54532f77795e1d8367d0874727e8fba5fe",
    "redraw_teacher": "82ef0be3a8001307e463de93a3f54525814a2fcae9047c47a8896e25c2c69963",
    "fullscale_init": "d5edfac9d2d0823e45cd37383377fe02f295a319f22a5f79bf45a0a93ef45dab",
}


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def data_digest(case: str) -> str:
    if case == "fullscale_init":
        model = ModelSpec.two_layer_relu(32, 1024)
        # the init seed fullscale_gd.cfg (seed = 1, init_seed unset) resolves to
        init = InitSpec(scale=0.01, scheme="fan_in_uniform",
                        seed=splitmix64_stream(1, 3)[2])
        return array_digest(*init_params(model, init).blocks)
    if case == "fullscale_teacher":
        spec, m, seed = TeacherSpec(32, 64, 3, seed=3), 4000, 17
    else:
        spec, m, seed = TeacherSpec(5, 1, 1, seed=2), 3000, 23
    ds = sample_dataset(gen_teacher(spec), m, seed)
    return array_digest(ds.X, ds.y)


@pytest.mark.parametrize("case", sorted(DATA_GOLDEN))
def test_data_digests_match_the_pins(case):
    assert data_digest(case) == DATA_GOLDEN[case]
