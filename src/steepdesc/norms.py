"""Norms, dual norms, steepest-direction maps, and norm subgradients.

Every norm used by the update rules and diagnostics has a closed form here:
flat l1 / l2 / l-infinity, per-block spectral, and the modular composite
(max over blocks of a per-block norm). For each norm the module exposes

  * ``norm_value``        -- ||v||
  * ``dual_norm_value``   -- ||g||* = max { <g, u> : ||u|| = 1 }
  * ``steepest_direction``-- the minimizer of <u, g> over ||u|| <= ||g||*,
                             which satisfies <d, g> = -||g||*^2 and
                             ||d|| = ||g||* whenever g != 0
  * ``norm_subgradient``  -- an element n of the subdifferential of ||.||,
                             i.e. <n, v> = ||v|| and ||n||* <= 1

The gradient-side maps (the dual norm and the steepest directions) act on
a vector's trainable blocks: frozen blocks are not optimization variables,
and a direction has the trainable blocks' layout.

Tie-breaking is deterministic everywhere: argmax ties resolve to the lowest
index, sign(0) = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, NonFiniteError, ShapeMismatchError,
                     ZeroVectorError)
from .params import ParamVector, from_flat

L1 = "l1"
L2 = "l2"
LINF = "linf"
SPECTRAL = "spectral"
MODULAR_MAX = "modular_max"

_FLAT_KINDS = (L1, L2, LINF)
SVD_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class NormSpec:
    """Declarative description of the algorithm norm.

    ``kind`` is one of ``l1``, ``l2``, ``linf`` (computed on the flat
    coordinate view), ``spectral`` (max over blocks of the largest singular
    value, vectors treated as one-column matrices), or ``modular_max``
    (max over blocks, each block under its own norm from ``block_norms``).
    Modular composition is a single level: block norms may not themselves
    be modular.
    """

    kind: str
    block_norms: tuple["NormSpec", ...] = field(default=())

    def __post_init__(self):
        if self.kind not in (*_FLAT_KINDS, SPECTRAL, MODULAR_MAX):
            raise ConfigError(f"unknown norm kind {self.kind!r}")
        if self.kind == MODULAR_MAX:
            if not self.block_norms:
                raise ConfigError("modular_max requires at least one block norm")
            if any(b.kind == MODULAR_MAX for b in self.block_norms):
                raise ConfigError("modular_max block norms may not be modular_max")
        elif self.block_norms:
            raise ConfigError(
                f"block_norms is only valid for modular_max, not {self.kind}")

    @classmethod
    def l1(cls) -> "NormSpec":
        return cls(L1)

    @classmethod
    def l2(cls) -> "NormSpec":
        return cls(L2)

    @classmethod
    def linf(cls) -> "NormSpec":
        return cls(LINF)

    @classmethod
    def spectral(cls) -> "NormSpec":
        return cls(SPECTRAL)

    @classmethod
    def modular(cls, block_norms) -> "NormSpec":
        return cls(MODULAR_MAX, tuple(block_norms))

    def label(self) -> str:
        if self.kind == MODULAR_MAX:
            return "modular:" + ",".join(b.label() for b in self.block_norms)
        return self.kind


def _check_blocks(spec: NormSpec, blocks: tuple[np.ndarray, ...]) -> None:
    if spec.kind == MODULAR_MAX and len(spec.block_norms) != len(blocks):
        raise ShapeMismatchError(
            f"modular_max has {len(spec.block_norms)} block norms but the "
            f"vector has {len(blocks)} blocks"
        )


def _as_matrix(block: np.ndarray) -> np.ndarray:
    if block.ndim == 1:
        return block.reshape(-1, 1)
    if block.ndim == 2:
        return block
    raise ShapeMismatchError(f"blocks must be vectors or matrices, got ndim={block.ndim}")


def thin_svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-truncated thin SVD: M = U diag(s) V^T.

    Singular values at or below ``SVD_RANK_RTOL`` times the largest are
    dropped; a zero matrix yields empty factors.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise NonFiniteError("thin_svd: matrix has non-finite entries")
    try:
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NonFiniteError(f"thin_svd: SVD did not converge: {exc}") from exc
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0], s[:0], vt[:0].T
    keep = s > SVD_RANK_RTOL * s[0]
    return u[:, keep], s[keep], vt[keep].T


def _l2(x: np.ndarray) -> float:
    """||x||_2 of a 1-D float64 array: sqrt(<x, x>), the operations
    ``np.linalg.norm`` performs on it, without its dispatch."""
    return math.sqrt(x.dot(x))


_NUCLEAR = "nuclear"   # the dual of a spectral block; not a NormSpec kind
_DUAL = {L1: LINF, L2: L2, LINF: L1, SPECTRAL: _NUCLEAR}


def _block_norm(kind: str, block: np.ndarray) -> float:
    """||block|| under a flat kind (over its coordinates), spectral or nuclear."""
    if kind in _FLAT_KINDS:
        x = block.ravel()
        if kind == L1:
            return float(np.abs(x).sum())
        if kind == L2:
            return _l2(x)
        return float(np.abs(x).max()) if x.size else 0.0
    m = _as_matrix(block)
    if m.size == 0 or not m.any():
        return 0.0
    if m.shape[1] == 1:
        return _l2(m.ravel())
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0] if kind == SPECTRAL else s.sum())


def _block_kinds(spec: NormSpec, blocks: tuple[np.ndarray, ...]) -> list[str]:
    """The norm kind of each of ``blocks`` under a per-block ``spec``."""
    if spec.kind == SPECTRAL:
        return [SPECTRAL] * len(blocks)
    return [b.kind for b in spec.block_norms]


def norm_value(spec: NormSpec, v: ParamVector) -> float:
    """||v|| under ``spec``; always >= 0."""
    _check_blocks(spec, v.blocks)
    if spec.kind in _FLAT_KINDS:
        return _block_norm(spec.kind, v.flat())
    return max(_block_norm(k, b)
               for k, b in zip(_block_kinds(spec, v.blocks), v.blocks))


def dual_norm_value(spec: NormSpec, g: ParamVector) -> float:
    """||g||* of g's trainable blocks: l1 and l-infinity are mutually
    dual, l2 is self-dual, the dual of max-over-blocks is the sum of
    per-block duals, and the dual of the spectral norm is the nuclear norm."""
    return _dual(spec, g.trainable_blocks(), g.trainable_flat())


def _dual(spec: NormSpec, blocks: tuple[np.ndarray, ...],
          flat: np.ndarray) -> float:
    """||.||* of the coordinates ``flat``, whose blocks are ``blocks``."""
    _check_blocks(spec, blocks)
    if spec.kind in _FLAT_KINDS:
        return _block_norm(_DUAL[spec.kind], flat)
    return float(sum(_block_norm(_DUAL[k], b)
                     for k, b in zip(_block_kinds(spec, blocks), blocks)))


def _unit_flat_direction(kind: str, flat: np.ndarray) -> np.ndarray:
    """Unit-norm steepest direction for a flat norm, <d, g> = -||g||*;
    zero where the dual norm ||g||* is zero."""
    if kind == L2:
        dual = _l2(flat)
        return flat / -dual if dual else np.zeros_like(flat)
    if kind == L1:
        d = np.zeros_like(flat)
        if flat.size:
            j = int(np.abs(flat).argmax())
            if flat[j]:
                d[j] = -np.sign(flat[j])
        return d
    # linf: full sign vector, sign(0) = 0
    return -np.sign(flat) if flat.any() else np.zeros_like(flat)


def _unit_block_direction(kind: str, block: np.ndarray) -> np.ndarray:
    """Unit steepest direction of a single block; zero block maps to zero."""
    if kind == SPECTRAL:
        if not block.any():
            return np.zeros_like(block)
        u, _, v = thin_svd(_as_matrix(block))
        return -(u @ v.T).reshape(block.shape)
    return _unit_flat_direction(kind, block.ravel()).reshape(block.shape)


def unit_steepest_direction(spec: NormSpec, g: ParamVector) -> ParamVector:
    """The steepest direction of g's trainable blocks rescaled to unit norm
    (zero for g = 0), in their layout.

    This is the displacement of the normalized update rules; the raw
    steepest direction is ``dual_norm_value(spec, g)`` times this. Each
    block's zero test is its own dual norm (or an exact zero check), so no
    dual norm is taken twice.
    """
    blocks = g.trainable_blocks()
    _check_blocks(spec, blocks)
    flat = g.trainable_flat()
    if not np.isfinite(flat).all():
        raise NonFiniteError("steepest direction: gradient has non-finite entries")
    if spec.kind in _FLAT_KINDS:
        d = _unit_flat_direction(spec.kind, flat)
        return (g.like(d) if len(blocks) == g.n_blocks
                else from_flat(d, [b.shape for b in blocks]))
    return ParamVector(tuple(_unit_block_direction(k, b)
                             for k, b in zip(_block_kinds(spec, blocks), blocks)))


def steepest_direction(spec: NormSpec, g: ParamVector) -> ParamVector:
    """The steepest-descent displacement for gradient ``g``.

    Satisfies the exact pairing <d, g> = -||g||*^2 and ||d|| = ||g||* for
    g != 0; returns zero for g = 0. The map is positively homogeneous, so
    callers carrying gradient magnitudes in log-domain may rescale after.
    """
    dual = dual_norm_value(spec, g)
    unit = unit_steepest_direction(spec, g)
    return unit.scaled(dual) if dual != 0.0 else unit


def _flat_subgradient(kind: str, x: np.ndarray, value: float) -> np.ndarray:
    """The fixed subgradient of a flat norm at ``x``, whose norm is ``value``."""
    if kind == L2:
        return x / value
    if kind == L1:
        return np.sign(x)
    j = int(np.argmax(np.abs(x)))
    n = np.zeros_like(x)
    n[j] = np.sign(x[j])
    return n


def norm_subgradient(spec: NormSpec, theta: ParamVector,
                     value: float | None = None) -> ParamVector:
    """A fixed element of the subdifferential of ||.|| at ``theta`` != 0.

    The selection is deterministic: lowest index on argmax ties, sign(0)=0,
    leading singular pair for spectral blocks. Satisfies
    <n, theta> = ||theta|| and ||n||* <= 1. ``value`` is ||theta||, when
    the caller has it.
    """
    if value is None:
        value = norm_value(spec, theta)
    return theta.like(_subgradient(spec, theta.blocks, theta.flat(), value))


def _subgradient(spec: NormSpec, blocks: tuple[np.ndarray, ...],
                 flat: np.ndarray, value: float) -> np.ndarray:
    """``norm_subgradient`` at the coordinates ``flat``, whose blocks are
    ``blocks`` and whose norm is ``value``, as a new flat array."""
    _check_blocks(spec, blocks)
    if value == 0.0:
        raise ZeroVectorError("norm_subgradient is undefined at theta = 0")
    if spec.kind in _FLAT_KINDS:
        return _flat_subgradient(spec.kind, flat, value)

    kinds = _block_kinds(spec, blocks)
    values = [_block_norm(k, b) for k, b in zip(kinds, blocks)]
    j = int(np.argmax(values))  # lowest index on ties
    b = blocks[j]
    if kinds[j] == SPECTRAL:
        u, _, v = thin_svd(_as_matrix(b))
        sub = np.outer(u[:, 0], v[:, 0])
    else:
        sub = _flat_subgradient(kinds[j], b.ravel(), values[j])
    n = np.zeros_like(flat)
    start = sum(other.size for other in blocks[:j])
    n[start:start + b.size] = sub.ravel()
    return n
