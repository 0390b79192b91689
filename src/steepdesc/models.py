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

The hidden layer relu(X @ W.T) has one expression, ``_relu_hidden``, which
writes it into a given buffer. A training step forms it once, into an
(m, width) buffer allocated once per run: ``forward_batch`` writes it and
``hidden_subgradient_sum`` reads it and then reuses it for the weighted
activity mask, so a step makes no (m, width) temporaries.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeMismatchError
from .params import Layout, ParamVector, from_flat
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
        for name in ("input_dim", "width"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {size!r}")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be positive")
        if self.kind == TWO_LAYER_RELU and self.width < 1:
            raise ConfigError("two_layer_relu requires a positive width")

    @property
    def homogeneity_degree(self) -> int:
        """Degree L of f(x; c*theta) = c^L f(x; theta): its trainable layers."""
        return self.layout.n_trainable

    @cached_property
    def layout(self) -> Layout:
        """The parameters' block layout, as ``init_params`` builds it."""
        shapes = ([(self.input_dim,)] if self.kind == LINEAR
                  else [(self.width, self.input_dim), (self.width,)])
        return Layout.of(shapes, (True, not self.freeze_second_layer)[:len(shapes)])

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
        if not 0.0 < self.scale < math.inf:
            raise ConfigError("init scale must be finite and positive")
        if self.scheme not in (FAN_IN_UNIFORM, COORDINATE_UNIFORM):
            raise ConfigError(f"unknown init scheme {self.scheme!r}")


def _check_params(model: ModelSpec, theta: ParamVector) -> None:
    if theta.layout.shapes != model.layout.shapes:
        raise ShapeMismatchError(f"{model.kind} expects block shapes "
                                 f"{model.layout.shapes}, got {theta.shapes()}")


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


def forward_batch(model: ModelSpec, theta: ParamVector, X: np.ndarray,
                  hidden: np.ndarray | None = None) -> np.ndarray:
    """f over the rows of X, shape (m,).

    A two-layer model writes relu(X @ W.T) into ``hidden`` (a new one for
    all rows when not given) in chunks of its row count; it ends holding the
    last chunk. A given ``hidden`` must be a float64 (rows >= 1, width)
    array.
    """
    _check_params(model, theta)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeMismatchError(f"inputs must have shape (m, {model.input_dim}), "
                                 f"got {X.shape}")
    if model.kind == LINEAR:
        return X @ theta.blocks[0]
    w, u = theta.blocks
    if hidden is None:
        hidden = np.empty((max(len(X), 1), model.width))
    elif (hidden.ndim != 2 or hidden.dtype != np.float64 or len(hidden) < 1
          or hidden.shape[1] != model.width):
        raise ShapeMismatchError(f"hidden buffer must be float64 of shape (rows >= 1, "
                                 f"{model.width}), got {hidden.dtype} {hidden.shape}")
    f = np.empty(len(X))
    for start in range(0, len(X), len(hidden)):
        rows = X[start:start + len(hidden)]
        h = _relu_hidden(rows, w, hidden[:len(rows)])
        np.matmul(h, u, out=f[start:start + len(rows)])
    return f


def _relu_hidden(X: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The hidden layer relu(X @ w.T), written into ``out`` and returned."""
    return np.maximum(np.matmul(X, w.T, out=out), 0.0, out=out)


def network_subgradient(model: ModelSpec, theta: ParamVector, x: np.ndarray) -> ParamVector:
    """One element of the Clarke subdifferential of f(x; .) at theta.

    Uses the fixed selection relu'(0) = 0. Frozen blocks come back zero,
    since they are not optimization variables.
    """
    _check_params(model, theta)
    x = np.asarray(x, dtype=np.float64)
    if model.kind == LINEAR:
        return ParamVector((x,), theta.trainable)
    w, u = theta.blocks
    z = w @ x
    active = (z > 0.0).astype(np.float64)
    dw = (u * active)[:, None] * x[None, :]
    du = np.maximum(z, 0.0) if theta.trainable[1] else np.zeros_like(z)
    return ParamVector((dw, du), theta.trainable)


def weighted_subgradient_sum(model: ModelSpec, theta: ParamVector,
                             X: np.ndarray, coeffs: np.ndarray) -> ParamVector:
    """sum_i coeffs[i] * network_subgradient(model, theta, X[i]).

    The reduction is a single matrix product per block, computed in one
    fixed order; frozen blocks come back zero.
    """
    _check_params(model, theta)
    X = np.asarray(X, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    hidden = (_relu_hidden(X, theta.blocks[0], np.empty((len(X), model.width)))
              if model.kind == TWO_LAYER_RELU else None)
    return hidden_subgradient_sum(model, theta, X, coeffs, hidden)


def hidden_subgradient_sum(model: ModelSpec, theta: ParamVector, X: np.ndarray,
                           coeffs: np.ndarray,
                           hidden: np.ndarray | None) -> ParamVector:
    """``weighted_subgradient_sum`` from the hidden layer that
    ``forward_batch(model, theta, X, hidden)`` left in ``hidden``: the same
    numbers, without a second product of X with W. ``hidden`` is overwritten
    with the weighted activity mask; a linear model does not read it."""
    _check_params(model, theta)
    if model.kind == LINEAR:
        return theta.like(coeffs @ X)
    w, u = theta.blocks
    grad = np.empty(theta.size)
    if theta.trainable[1]:
        grad[w.size:] = hidden.T @ coeffs
    else:
        grad[w.size:] = 0.0       # a frozen second layer has a zero block
    # relu(z) > 0 exactly where z > 0, so the mask comes from the hidden layer
    weighted = np.greater(hidden, 0.0, out=hidden)
    np.multiply(coeffs[:, None], weighted, out=weighted)
    np.multiply(weighted.T @ X, u[:, None], out=grad[:w.size].reshape(w.shape))
    return theta.like(grad)


def init_params(model: ModelSpec, init: InitSpec) -> ParamVector:
    """Deterministic parameter draw from the scheme's uniform ranges.

    Draw order: first-layer rows in order (coordinates left to right),
    then the second layer. ``fan_in_uniform`` draws w in [-a/d, a/d] and u
    in [-a/k', a/k']; ``coordinate_uniform`` puts every parameter on the
    same scale, w and u both in [-a/k', a/k']. The frozen variant draws u
    identically but marks the block non-trainable. Each value is
    ``uniform_in(-half, half)`` of one uniform, -half + (2 * half) * u.
    """
    a = init.scale
    if model.kind == LINEAR:
        half = a / model.input_dim
        us = Xoshiro256pp(init.seed).uniforms(model.input_dim)
        return ParamVector((-half + (2.0 * half) * us,))
    d, k = model.input_dim, model.width
    w_half = a / d if init.scheme == FAN_IN_UNIFORM else a / k
    u_half = a / k
    us = Xoshiro256pp(init.seed).uniforms(k * d + k)
    w = -w_half + (2.0 * w_half) * us[:k * d].reshape(k, d)
    u = -u_half + (2.0 * u_half) * us[k * d:]
    return ParamVector((w, u), model.layout.trainable)


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
        theta = from_flat(flat, header["block_shapes"], header["trainable"])
        found = (theta.layout, header["homogeneity_degree"])
        expected = (model.layout, model.homogeneity_degree)   # as init_params builds
    except (ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint: {exc}") from exc
    if found != expected:
        raise DataFormatError(f"{path}: header shapes, flags, degree {theta.shapes()}, "
                              f"{theta.trainable}, {found[1]}; a {model.kind} model's are "
                              f"{model.layout.shapes}, {model.layout.trainable}, {expected[1]}")
    if not theta.allfinite():
        raise DataFormatError(f"{path}: checkpoint has non-finite coordinates")
    return model, theta
