"""Homogeneous classifiers: forward maps and exact subgradient selections.

Two architectures are supported, both positively homogeneous in the
trainable parameters:

  * ``linear``          f(x; theta) = <theta, x>, degree 1
  * ``two_layer_relu``  f(x; {W, u}) = sum_j u_j relu(<w_j, x>), degree 2,
                        or degree 1 when the second layer is frozen

ReLU is non-differentiable at 0; the fixed Clarke selection used throughout
is relu'(0) = 0, so inactive and exactly-critical neurons contribute
nothing. Per-example subgradients are reduced over examples in index order
(delegated to matrix products with a fixed order on this platform).

A training step forms relu(X @ W.T) once, into a ``Workspace`` allocated once
per run: ``forward_batch`` writes it and ``hidden_subgradient_sum`` reads it,
so a step makes no (m, width) temporaries.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeMismatchError
from .params import ParamVector, from_flat
from .rng import Xoshiro256pp

LINEAR = "linear"
TWO_LAYER_RELU = "two_layer_relu"

FAN_IN_UNIFORM = "fan_in_uniform"
COORDINATE_UNIFORM = "coordinate_uniform"

_CKPT_MAGIC = b"SDCK"
_CKPT_VERSION = 1


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    width: int = 0
    freeze_second_layer: bool = False

    def __post_init__(self):
        if self.kind not in (LINEAR, TWO_LAYER_RELU):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be positive")
        if self.kind == TWO_LAYER_RELU and self.width < 1:
            raise ConfigError("two_layer_relu requires a positive width")

    @property
    def homogeneity_degree(self) -> int:
        """Degree L of f(x; c*theta) = c^L f(x; theta)."""
        if self.kind == LINEAR:
            return 1
        return 1 if self.freeze_second_layer else 2

    @classmethod
    def linear(cls, input_dim: int) -> "ModelSpec":
        return cls(LINEAR, input_dim)

    @classmethod
    def two_layer_relu(cls, input_dim: int, width: int,
                       freeze_second_layer: bool = False) -> "ModelSpec":
        return cls(TWO_LAYER_RELU, input_dim, width, freeze_second_layer)


@dataclass(frozen=True)
class InitSpec:
    scale: float
    scheme: str = FAN_IN_UNIFORM
    seed: int = 0

    def __post_init__(self):
        if self.scale <= 0:
            raise ConfigError("init scale must be positive")
        if self.scheme not in (FAN_IN_UNIFORM, COORDINATE_UNIFORM):
            raise ConfigError(f"unknown init scheme {self.scheme!r}")


def _check_params(model: ModelSpec, theta: ParamVector) -> None:
    if model.kind == LINEAR:
        expected = ((model.input_dim,),)
    else:
        expected = ((model.width, model.input_dim), (model.width,))
    if theta.shapes() != expected:
        raise ShapeMismatchError(
            f"{model.kind} expects block shapes {expected}, got {theta.shapes()}"
        )


def forward(model: ModelSpec, theta: ParamVector, x: np.ndarray) -> float:
    """f(x; theta) for a single input."""
    _check_params(model, theta)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise ShapeMismatchError(f"input must have shape ({model.input_dim},), got {x.shape}")
    if model.kind == LINEAR:
        return float(theta.blocks[0] @ x)
    w, u = theta.blocks
    return float(u @ np.maximum(w @ x, 0.0))


class Workspace:
    """(m, width) buffers for relu(X @ W.T) and the subgradient's weighted
    activity mask; ``generation`` counts the forward passes written here."""

    def __init__(self, model: ModelSpec, m: int):
        self.hidden = np.empty((m, model.width))
        self.weighted = np.empty((m, model.width))
        self.generation = 0


def forward_batch(model: ModelSpec, theta: ParamVector, X: np.ndarray,
                  hidden: np.ndarray | None = None) -> np.ndarray:
    """f over the rows of X, shape (m,).

    A two-layer model writes relu(X @ W.T) into ``hidden``, when given, in
    chunks of its row count; it ends holding the last chunk.
    """
    _check_params(model, theta)
    X = np.asarray(X, dtype=np.float64)
    if model.kind == LINEAR:
        return X @ theta.blocks[0]
    w, u = theta.blocks
    if hidden is None:
        return np.maximum(X @ w.T, 0.0) @ u
    f = np.empty(len(X))
    for start in range(0, len(X), len(hidden)):
        rows = X[start:start + len(hidden)]
        h = hidden[:len(rows)]
        np.maximum(np.matmul(rows, w.T, out=h), 0.0, out=h)
        np.matmul(h, u, out=f[start:start + len(rows)])
    return f


def network_subgradient(model: ModelSpec, theta: ParamVector, x: np.ndarray) -> ParamVector:
    """One element of the Clarke subdifferential of f(x; .) at theta.

    Uses the fixed selection relu'(0) = 0. Frozen blocks come back zero,
    since they are not optimization variables.
    """
    _check_params(model, theta)
    x = np.asarray(x, dtype=np.float64)
    if model.kind == LINEAR:
        return ParamVector((x.copy(),), theta.trainable)
    w, u = theta.blocks
    z = w @ x
    active = (z > 0.0).astype(np.float64)
    dw = (u * active)[:, None] * x[None, :]
    du = np.maximum(z, 0.0)
    grad = ParamVector((dw, du), theta.trainable)
    return grad.embed_trainable(grad.trainable_view())


def weighted_subgradient_sum(model: ModelSpec, theta: ParamVector,
                             X: np.ndarray, coeffs: np.ndarray) -> ParamVector:
    """sum_i coeffs[i] * network_subgradient(model, theta, X[i]).

    The reduction is a single matrix product per block, computed in one
    fixed order; frozen blocks come back zero.
    """
    _check_params(model, theta)
    X = np.asarray(X, dtype=np.float64)
    work = Workspace(model, len(X))
    if model.kind == TWO_LAYER_RELU:
        np.maximum(X @ theta.blocks[0].T, 0.0, out=work.hidden)
    return hidden_subgradient_sum(model, theta, X, coeffs, work)


def hidden_subgradient_sum(model: ModelSpec, theta: ParamVector, X: np.ndarray,
                           coeffs: np.ndarray, work: Workspace) -> ParamVector:
    """``weighted_subgradient_sum`` from the hidden layer that
    ``forward_batch(model, theta, X, work.hidden)`` left in ``work``: the
    same numbers, without a second product of X with W."""
    _check_params(model, theta)
    X = np.asarray(X, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if model.kind == LINEAR:
        return ParamVector((coeffs @ X,), theta.trainable)
    u = theta.blocks[1]
    # relu(z) > 0 exactly where z > 0, so the mask comes from the hidden layer
    weighted = np.greater(work.hidden, 0.0, out=work.weighted)
    np.multiply(coeffs[:, None], weighted, out=weighted)
    dw = (weighted.T @ X) * u[:, None]
    du = work.hidden.T @ coeffs
    grad = ParamVector((dw, du), theta.trainable)
    return grad.embed_trainable(grad.trainable_view())


def euler_identity_check(model: ModelSpec, theta: ParamVector, x: np.ndarray) -> float:
    """Residual |<theta, df> - L*f(x; theta)| of the homogeneity identity."""
    h = network_subgradient(model, theta, x)
    f = forward(model, theta, x)
    return abs(theta.dot(h) - model.homogeneity_degree * f)


def init_params(model: ModelSpec, init: InitSpec) -> ParamVector:
    """Deterministic parameter draw from the scheme's uniform ranges.

    Draw order: first-layer rows in order (coordinates left to right),
    then the second layer. ``fan_in_uniform`` draws w in [-a/d, a/d] and u
    in [-a/k', a/k']; ``coordinate_uniform`` puts every parameter on the
    same scale, w and u both in [-a/k', a/k']. The frozen variant draws u
    identically but marks the block non-trainable.
    """
    rng = Xoshiro256pp(init.seed)
    a = init.scale
    if model.kind == LINEAR:
        half = a / model.input_dim
        theta = np.array([rng.uniform_in(-half, half) for _ in range(model.input_dim)])
        return ParamVector((theta,))
    d, k = model.input_dim, model.width
    w_half = a / d if init.scheme == FAN_IN_UNIFORM else a / k
    u_half = a / k
    w = np.array([[rng.uniform_in(-w_half, w_half) for _ in range(d)] for _ in range(k)])
    u = np.array([rng.uniform_in(-u_half, u_half) for _ in range(k)])
    trainable = (True, not model.freeze_second_layer)
    return ParamVector((w, u), trainable)


def save_checkpoint(path, model: ModelSpec, theta: ParamVector) -> None:
    """Binary checkpoint: JSON header + little-endian float64 coordinates."""
    _check_params(model, theta)
    header = {
        "model": {
            "kind": model.kind,
            "input_dim": model.input_dim,
            "width": model.width,
            "freeze_second_layer": model.freeze_second_layer,
        },
        "homogeneity_degree": model.homogeneity_degree,
        "block_shapes": [list(s) for s in theta.shapes()],
        "trainable": list(theta.trainable),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    flat = theta.flat().astype("<f8")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
        f.write(blob)
        f.write(flat.tobytes())


def load_checkpoint(path) -> tuple[ModelSpec, ParamVector]:
    data = Path(path).read_bytes()
    if data[:4] != _CKPT_MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint (bad magic {data[:4]!r})")
    try:
        version, blob_len = struct.unpack("<II", data[4:12])
    except struct.error as exc:
        raise DataFormatError(f"{path}: truncated checkpoint header") from exc
    if version != _CKPT_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(data[12:12 + blob_len].decode("utf-8"))
        m = header["model"]
        model = ModelSpec(m["kind"], m["input_dim"], m["width"], m["freeze_second_layer"])
        flat = np.frombuffer(data[12 + blob_len:], dtype="<f8").astype(np.float64)
        shapes = [tuple(s) for s in header["block_shapes"]]
        theta = from_flat(flat, shapes, header["trainable"])
    except (ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint: {exc}") from exc
    _check_params(model, theta)
    return model, theta
