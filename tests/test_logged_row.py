"""One logged row, computed once on flat buffers.

``margin_report``, ``kkt_residuals`` and ``emit_csv`` are checked bit for bit
against the block-vector implementations they replaced, kept below as
references: every report field (the bytes of ``log_lambda`` included) for
every norm kind, with and without a frozen second layer, under both losses,
at separated points; and the CSV bytes of rows holding None, bools,
integers, NaN, infinities, -0.0 and subnormals. A count test pins what one
post-separation row computes: one KKT product, one SVD, one <theta, g_hat>
and at most two ParamVector constructions, with or without a frozen second
layer, and that the row does not form the step's gradient, which
``evaluate`` has already formed.
"""
import dataclasses
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steepdesc import diagnostics, harness, losses
from steepdesc.diagnostics import kkt_residuals, margin_report
from steepdesc.errors import ZeroVectorError
from steepdesc.harness import (CSV_COLUMNS, LogRow, RunLog, config_from_values,
                               emit_csv, read_flat_config, run_training)
from steepdesc.losses import LossSpec, evaluate, phi_inverse
from steepdesc.models import (ModelSpec, forward_batch, hidden_subgradient_sum,
                              weighted_subgradient_sum)
from steepdesc.norms import NormSpec
from steepdesc.params import ParamVector

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXP, LOG = LossSpec.exponential(), LossSpec.logistic()
FLAT = ("l1", "l2", "linf")
DUAL = {"l1": "linf", "l2": "l2", "linf": "l1", "spectral": "nuclear"}


# --- references: the row as block vectors, before it moved to flat buffers;
# they call no steepdesc.norms code, so they share none with what they check

def ref_as_matrix(block):
    return block.reshape(-1, 1) if block.ndim == 1 else block


def ref_block_kinds(spec, blocks):
    if spec.kind == "spectral":
        return ["spectral"] * len(blocks)
    return [b.kind for b in spec.block_norms]


def ref_flat_subgradient(kind, x, value):
    if kind == "l2":
        return x / value
    if kind == "l1":
        return np.sign(x)
    j = int(np.argmax(np.abs(x)))
    n = np.zeros_like(x)
    n[j] = np.sign(x[j])
    return n


def ref_block_norm(kind, block):
    if kind in FLAT:
        x = block.ravel()
        if kind == "l1":
            return float(np.abs(x).sum())
        if kind == "l2":
            return math.sqrt(x.dot(x))
        return float(np.abs(x).max()) if x.size else 0.0
    m = ref_as_matrix(block)
    if m.size == 0 or not m.any():
        return 0.0
    if m.shape[1] == 1:
        return math.sqrt(m.ravel().dot(m.ravel()))
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0] if kind == "spectral" else s.sum())


def ref_norm_value(spec, v):
    if spec.kind in FLAT:
        return ref_block_norm(spec.kind, v.flat())
    return max(ref_block_norm(k, b)
               for k, b in zip(ref_block_kinds(spec, v.blocks), v.blocks))


def ref_dual_norm_value(spec, g):
    blocks = g.trainable_blocks()
    if spec.kind in FLAT:
        return ref_block_norm(DUAL[spec.kind], g.trainable_flat())
    return float(sum(ref_block_norm(DUAL[k], b)
                     for k, b in zip(ref_block_kinds(spec, blocks), blocks)))


def ref_norm_subgradient(spec, theta, value):
    if spec.kind in FLAT:
        return theta.like(ref_flat_subgradient(spec.kind, theta.flat(), value))
    kinds = ref_block_kinds(spec, theta.blocks)
    values = [ref_block_norm(k, b) for k, b in zip(kinds, theta.blocks)]
    j = int(np.argmax(values))
    b = theta.blocks[j]
    if kinds[j] == "spectral" and ref_as_matrix(b).shape[1] > 1:
        u, _, vt = np.linalg.svd(ref_as_matrix(b), full_matrices=False)
        sub = np.outer(u[:, 0], vt[0]).reshape(b.shape)
    else:                   # a one-column spectral block's face is its l2 face
        kind = "l2" if kinds[j] == "spectral" else kinds[j]
        sub = ref_flat_subgradient(kind, b.ravel(), values[j]).reshape(b.shape)
    blocks = [np.zeros_like(other) for other in theta.blocks]
    blocks[j] = sub
    return ParamVector(tuple(blocks), theta.trainable)


def ref_dot(a, b):
    return float(sum(np.dot(x.ravel(), y.ravel())
                     for x, y in zip(a.blocks, b.blocks)))


def trainable(v):
    """The trainable blocks of ``v`` as a vector of their own."""
    return v.like(v.trainable_flat())


def ref_scaled_trainable(theta, c):
    head = theta.trainable_flat()
    return theta.like(np.concatenate((c * head, theta.buffer[head.size:])))


def ref_alignment(ev, algo):
    theta_norm = ref_norm_value(algo, trainable(ev.theta))
    g_hat = trainable(ev.subgradient[0])
    dual = ref_dual_norm_value(algo, g_hat)
    if dual == 0.0 or theta_norm == 0.0:
        return math.nan
    return -ref_dot(trainable(ev.theta), g_hat) / (theta_norm * dual)


def ref_margin_report(ev, algo):
    theta_tr = trainable(ev.theta)
    algo_theta_norm = ref_norm_value(algo, theta_tr)
    degree = ev.model.homogeneity_degree
    q_min = float(ev.q.min())
    norms_ = {spec.label(): ref_norm_value(spec, theta_tr)
              for spec in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf(),
                           NormSpec.spectral())}
    norms_[algo.label()] = algo_theta_norm
    try:
        soft = phi_inverse(ev.loss, -ev.log_loss) / algo_theta_norm**degree
    except ValueError:
        soft = math.nan
    return diagnostics.MarginReport(
        q_min=q_min,
        gamma_1=q_min / norms_["linf"]**degree,
        gamma_2=q_min / norms_["l2"]**degree,
        gamma_inf=q_min / norms_["l1"]**degree,
        gamma_sigma=q_min / norms_["spectral"]**degree,
        gamma_algo=q_min / algo_theta_norm**degree,
        soft_margin=soft,
        param_norms=norms_,
        log_loss=ev.log_loss,
        alignment=ref_alignment(ev, algo),
        separated=ev.log_loss < losses.separation_threshold(ev.loss),
        algo_norm=algo,
        grad_dual=ref_dual_norm_value(algo, trainable(ev.subgradient[0])),
    )


def ref_bregman_divergence(algo, y, z, m_vec):
    dy = ref_dual_norm_value(algo, y)
    dz = ref_dual_norm_value(algo, z)
    return 0.5 * dy * dy - 0.5 * dz * dz - ref_dot(m_vec, y - z)


def ref_kkt_residuals(ev, algo, gamma_tilde_t0=None):
    model, theta, data, q = ev.model, ev.theta, ev.data, ev.q
    degree = model.homogeneity_degree
    theta_norm = ref_norm_value(algo, trainable(theta))
    q_min = float(q.min())
    log_scale = ev.subgradient[1]
    dual_hat = ref_dual_norm_value(algo, trainable(ev.subgradient[0]))
    log_g_dual = log_scale + math.log(dual_hat)
    log_lambda = (math.log(theta_norm) - log_g_dual
                  + (1.0 - 2.0 / degree) * math.log(q_min) + ev.logw)
    theta_f = ref_scaled_trainable(theta, q_min ** (-1.0 / degree))
    theta_f_tr = trainable(theta_f)
    theta_f_norm = ref_norm_value(algo, theta_f_tr)
    shift = float(np.max(log_lambda))
    y = np.asarray(data.y, dtype=np.float64)
    coeffs = y * np.exp(log_lambda - shift)
    s = weighted_subgradient_sum(model, theta_f, data.X, coeffs).scaled(math.exp(shift))
    s_tr = trainable(s)
    k = ref_norm_subgradient(algo, theta_f_tr, theta_f_norm).scaled(theta_f_norm)
    eps = float(np.linalg.norm((s_tr - k).flat()))
    slack = q / q_min - 1.0
    delta = float(math.exp(shift) * np.dot(np.exp(log_lambda - shift), slack))
    gap = ref_bregman_divergence(algo, s_tr, k, theta_f_tr)
    bregman_bound = delta_bound = None
    if gamma_tilde_t0 is not None and gamma_tilde_t0 > 0.0:
        align = ref_alignment(ev, algo)
        gt0 = gamma_tilde_t0 ** (2.0 / degree)
        bregman_bound = (1.0 - align) / gt0
        if ev.log_loss < 0.0:
            delta_bound = len(y) / (math.e * gt0 * degree * (-ev.log_loss))
    return diagnostics.KKTReport(log_lambda=log_lambda, eps=eps, delta=delta,
                                 bregman_gap=gap, bregman_bound=bregman_bound,
                                 delta_bound=delta_bound)


def ref_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def ref_emit_csv(log, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for row in log.rows:
            f.write(",".join(ref_fmt(getattr(row, col)) for col in CSV_COLUMNS) + "\n")


# --- separated points

class Points:
    def __init__(self, X, y):
        self.X, self.y = X, y


def modular(n_trainable):
    return NormSpec.modular([NormSpec.spectral(), NormSpec.l2()][:n_trainable])


def random_point(seed, freeze, scale):
    """A two-layer network and inputs labelled by its own sign, so q > 0."""
    rng = np.random.default_rng(seed)
    model = ModelSpec.two_layer_relu(4, 6, freeze_second_layer=freeze)
    theta = ParamVector.of(scale * rng.standard_normal((6, 4)),
                           scale * rng.standard_normal(6),
                           trainable=(True, not freeze))
    X = rng.standard_normal((20, 4))
    f = forward_batch(model, theta, X)
    keep = f != 0.0
    return model, theta, Points(X[keep], np.sign(f[keep]))


@pytest.fixture(scope="module")
def desk_point():
    """desk_gd 200 steps in: past its separation at step 96."""
    values = read_flat_config(CONFIGS / "desk_gd.cfg")
    values.update(epochs=200, log_every=200, test_m=0)
    config = config_from_values(values)
    train, _ = harness.resolve_data(config)
    log = run_training(config, train)
    assert log.t0_step is not None
    return config.model, log.final_theta, train


def bits(value):
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if value is None or isinstance(value, (bool, NormSpec)):
        return value
    return type(value), struct.pack("<d", value)


def assert_same_report(new, ref):
    for f in dataclasses.fields(ref):
        assert bits(getattr(new, f.name)) == bits(getattr(ref, f.name)), f.name


def check_row(loss, model, theta, data, algo):
    ev_new = evaluate(loss, model, theta, data)
    ev_ref = evaluate(loss, model, theta, data)
    rep = margin_report(ev_new, algo)
    assert_same_report(rep, ref_margin_report(ev_ref, algo))
    for gamma in (None, 0.37):
        assert_same_report(kkt_residuals(ev_new, rep, gamma),
                           ref_kkt_residuals(ev_ref, algo, gamma))


ALGOS = {"l1": lambda n: NormSpec.l1(), "l2": lambda n: NormSpec.l2(),
         "linf": lambda n: NormSpec.linf(),
         "spectral": lambda n: NormSpec.spectral(), "modular": modular}


@pytest.mark.parametrize("loss", [EXP, LOG], ids=["exp", "logistic"])
@pytest.mark.parametrize("freeze", [False, True], ids=["trainable", "frozen"])
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_reports_match_the_block_vector_row_bit_for_bit(algo, freeze, loss):
    for seed in range(3):
        for scale in (1.0, 8.0):
            model, theta, data = random_point(seed, freeze, scale)
            check_row(loss, model, theta, data, ALGOS[algo](2 - freeze))


def one_input_point(seed, freeze):
    """A two-layer network on one input, so W is a one-column matrix, and
    inputs labelled by its own sign."""
    rng = np.random.default_rng(seed)
    model = ModelSpec.two_layer_relu(1, 6, freeze_second_layer=freeze)
    theta = ParamVector.of(rng.standard_normal((6, 1)), rng.standard_normal(6),
                           trainable=(True, not freeze))
    X = rng.standard_normal((20, 1))
    f = forward_batch(model, theta, X)
    keep = f != 0.0
    return model, theta, Points(X[keep], np.sign(f[keep]))


@pytest.mark.parametrize("freeze", [False, True], ids=["trainable", "frozen"])
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_reports_match_with_a_one_column_w_block(algo, freeze):
    for seed in range(3):
        model, theta, data = one_input_point(seed, freeze)
        for loss in (EXP, LOG):
            check_row(loss, model, theta, data, ALGOS[algo](2 - freeze))


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_reports_match_on_a_trained_desk_point(algo, desk_point):
    model, theta, data = desk_point
    for loss in (EXP, LOG):
        check_row(loss, model, theta, data, ALGOS[algo](2))


def test_kkt_rejects_theta_zero():
    # kkt_residuals reads its norms from a MarginReport, and no report
    # exists at theta = 0, so the KKT path stops before any residual forms
    model, theta, data = random_point(0, False, 1.0)
    zero = theta.like(np.zeros(theta.size))
    ev = evaluate(EXP, model, zero, data)
    with pytest.raises(ZeroVectorError):
        kkt_residuals(ev, margin_report(ev, NormSpec.l2()))


# --- CSV bytes

SPECIAL = [None, True, False, 0, -7, np.int64(12), 2**70, 0.0, -0.0, 1.0,
           -2.5, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-310,
           2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3,
           np.float64(-0.0), np.float64(1e-320), np.True_, np.float64(np.nan)]


def emitted(rows, tmp_path, emit):
    path = tmp_path / f"{emit.__name__}.csv"
    emit(RunLog(rows=[LogRow(**dict(zip(CSV_COLUMNS, r))) for r in rows]), path)
    return path.read_bytes()


def test_csv_bytes_match_on_special_values(tmp_path):
    n = len(CSV_COLUMNS)
    rows = [[SPECIAL[(i + j) % len(SPECIAL)] for j in range(n)]
            for i in range(len(SPECIAL))]
    rows.append([None] * n)
    assert emitted(rows, tmp_path, emit_csv) == emitted(rows, tmp_path, ref_emit_csv)


FIELD = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from(SPECIAL))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(FIELD, min_size=len(CSV_COLUMNS),
                         max_size=len(CSV_COLUMNS)), min_size=1, max_size=4))
def test_csv_bytes_match_on_any_fields(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("csv")
    assert emitted(rows, tmp, emit_csv) == emitted(rows, tmp, ref_emit_csv)


# --- what one row computes

@pytest.mark.parametrize("freeze, vectors", [(False, 2), (True, 2)])
def test_one_row_computes_each_quantity_once(monkeypatch, freeze, vectors):
    """One post-separation row under the l2 algorithm norm: one KKT product,
    one SVD (the reported spectral norm), one <theta, g_hat> and at most two
    ParamVectors (theta~ and the product), also with a frozen second layer:
    the norm maps, ``views`` and ``dot_flat`` read the trainable prefix in
    place. The step's gradient is formed by ``evaluate``, before the count
    starts."""
    model, theta, data = random_point(1, freeze, 1.0)
    algo = NormSpec.l2()
    ev = evaluate(EXP, model, theta, data)
    g_hat = ev.subgradient[0]
    counts = {"wss": 0, "svd": 0, "theta.g_hat": 0, "vectors": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(diagnostics, "weighted_subgradient_sum",
                        counted("wss", weighted_subgradient_sum))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    post_init, dot_flat = ParamVector.__post_init__, ParamVector.dot_flat

    def counted_post_init(self):
        counts["vectors"] += 1
        post_init(self)

    def spied_dot_flat(self, flat):
        # every inner product of two vectors (ParamVector.dot too) ends here
        if any(np.shares_memory(x, g_hat.flat()) for x in (flat, self.flat())):
            counts["theta.g_hat"] += 1
        return dot_flat(self, flat)

    monkeypatch.setattr(ParamVector, "__post_init__", counted_post_init)
    monkeypatch.setattr(ParamVector, "dot_flat", spied_dot_flat)
    rep = margin_report(ev, algo)
    row = harness._build_row(5, ev, rep, None, True, 0.5, False)
    assert row.kkt_eps is not None and row.bregman_bound is not None
    assert counts["wss"] == counts["svd"] == counts["theta.g_hat"] == 1
    assert counts["vectors"] <= vectors


@pytest.mark.parametrize("freeze", [False, True], ids=["trainable", "frozen"])
def test_the_step_gradient_is_formed_by_evaluate(monkeypatch, freeze):
    """``evaluate`` forms the gradient once; the row's reports reuse it."""
    calls = []

    def counted(*args):
        calls.append(1)
        return hidden_subgradient_sum(*args)

    monkeypatch.setattr(losses, "hidden_subgradient_sum", counted)
    model, theta, data = random_point(2, freeze, 1.0)
    ev = evaluate(EXP, model, theta, data)
    assert len(calls) == 1
    kkt_residuals(ev, margin_report(ev, NormSpec.l2()), 0.5)
    assert len(calls) == 1
