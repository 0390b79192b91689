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

Every map reads a vector's trainable blocks, its leading prefix: frozen
blocks are not optimization variables, so they never enter a norm, and
directions and subgradients come back in the trainable blocks' layout. Each
norm is a max over segments (``_segments``): the whole trainable prefix for
l1, l2 and l-infinity, one block each for spectral and modular norms. So
||v|| is the segments' largest norm, ||g||* the sum of their dual norms,
the unit direction joins minus the dual norm's face (``_face``) at each
segment, and the subgradient is the face of the largest segment, zero on
the others. ``_face`` holds every fixed selection: argmax ties resolve to
the lowest index, sign(0) = 0, and a spectral block takes its leading
singular pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, NonFiniteError, ShapeMismatchError,
                     ZeroVectorError)
from .params import ParamVector

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
    if m.size == 0:
        return 0.0
    s = np.linalg.svd(m, compute_uv=False)     # all +0.0 for a zero matrix
    return float(s[0] if kind == SPECTRAL else s.sum())


def _segments(spec: NormSpec, v: ParamVector,
              flat: np.ndarray | None = None) -> list[tuple[str, np.ndarray]]:
    """The (kind, coordinates) pairs ||.|| is the max over, for v's trainable
    prefix, or for ``flat`` in the layout of v's trainable blocks: all of it
    for a flat kind, each block under its own kind for a spectral or modular
    norm, a one-column block under spectral as l2: its spectral and nuclear
    norms and faces are l2's."""
    if spec.kind in _FLAT_KINDS:
        return [(spec.kind, v.trainable_flat() if flat is None else flat)]
    blocks = v.trainable_blocks() if flat is None else v.layout.views(flat)
    kinds = ([SPECTRAL] * len(blocks) if spec.kind == SPECTRAL
             else [b.kind for b in spec.block_norms])
    if len(kinds) != len(blocks):
        raise ShapeMismatchError(f"modular_max has {len(kinds)} block norms but "
                                 f"the vector has {len(blocks)} trainable blocks")
    return [(L2 if k == SPECTRAL and _as_matrix(x).shape[1] == 1 else k, x)
            for k, x in zip(kinds, blocks)]


def norm_value(spec: NormSpec, v: ParamVector) -> float:
    """||v|| of v's trainable blocks under ``spec``; always >= 0."""
    return max([_block_norm(k, x) for k, x in _segments(spec, v)])


def dual_norm_value(spec: NormSpec, g: ParamVector,
                    flat: np.ndarray | None = None) -> float:
    """||g||* of g's trainable blocks, or of ``flat`` in their layout: l1
    and l-infinity are mutually dual, l2 is self-dual, the dual of
    max-over-blocks is the sum of per-block duals, and the dual of the
    spectral norm is the nuclear norm."""
    return float(sum([_block_norm(_DUAL[k], x) for k, x in _segments(spec, g, flat)]))


def _face(kind: str, x: np.ndarray) -> tuple[np.ndarray, float | None]:
    """The fixed element n of the subdifferential of ||.||_kind at one
    segment x, as a new flat array, zero where x is: sign(x) for l1, x/||x||
    for l2, sign(x_j) e_j at the lowest j with the largest |x_j| for
    l-infinity, the leading singular pair u1 v1^T for spectral and U V^T for
    nuclear. Also ||x|| in ``kind`` where the pass forms it, else None."""
    if kind in (SPECTRAL, _NUCLEAR):
        if not x.any():
            return np.zeros(x.size), None
        u, _, v = thin_svd(_as_matrix(x))
        n = np.outer(u[:, 0], v[:, 0]) if kind == SPECTRAL else u @ v.T
        return n.ravel(), None
    x = x.ravel()
    if kind == L2:
        value = _l2(x)
        return (x / value if value else np.zeros(x.size)), value
    if kind == L1:
        return np.sign(x), None
    n = np.zeros(x.size)
    if not x.size:
        return n, 0.0
    a = np.abs(x)
    j = int(a.argmax())
    n[j] = np.sign(x[j])
    return n, float(a[j])     # the largest |x_i|, as a.max() gives it


def _steepest(spec: NormSpec, g: ParamVector, with_dual: bool
              ) -> tuple[np.ndarray, float | None]:
    """The unit direction of g's trainable blocks as a flat array and, when
    ``with_dual``, ||g||*, from the direction's pass where it gives it."""
    if not np.isfinite(g.trainable_flat()).all():
        raise NonFiniteError("steepest direction: gradient has non-finite entries")
    parts, duals = [], []
    for kind, x in _segments(spec, g):
        face, dual = _face(_DUAL[kind], x)
        parts.append(face)
        if with_dual:
            duals.append(_block_norm(_DUAL[kind], x) if dual is None else dual)
    # one segment's face is already a new flat array: joining would copy it
    unit = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return np.negative(unit, out=unit), (float(sum(duals)) if with_dual else None)


def unit_steepest_direction(spec: NormSpec, g: ParamVector) -> ParamVector:
    """The steepest direction of g's trainable blocks rescaled to unit norm
    (zero for g = 0), in their layout.

    This is the displacement of the normalized update rules; the raw
    steepest direction is ``dual_norm_value(spec, g)`` times this. Each
    segment's zero test is its own dual norm (or an exact zero check).
    """
    return g.like(_steepest(spec, g, False)[0])


def unit_direction_and_dual(spec: NormSpec, g: ParamVector) -> tuple[np.ndarray, float]:
    """``unit_steepest_direction(spec, g).flat()`` and ``dual_norm_value(spec,
    g)``, the same bits, with one pass over each l2 or l1 segment."""
    return _steepest(spec, g, True)


def steepest_direction(spec: NormSpec, g: ParamVector) -> ParamVector:
    """The steepest-descent displacement for gradient ``g``.

    Satisfies the exact pairing <d, g> = -||g||*^2 and ||d|| = ||g||* for
    g != 0; returns zero for g = 0. The map is positively homogeneous, so
    callers carrying gradient magnitudes in log-domain may rescale after.
    """
    unit, dual = unit_direction_and_dual(spec, g)
    return g.like(dual * unit if dual != 0.0 else unit)


def norm_subgradient(spec: NormSpec, theta: ParamVector) -> ParamVector:
    """A fixed element of the subdifferential of ||.|| at theta's trainable
    blocks (not all zero), in their layout.

    The selection is deterministic: lowest index on argmax ties, sign(0)=0,
    leading singular pair for spectral blocks. Satisfies
    <n, theta> = ||theta|| and ||n||* <= 1.
    """
    return theta.like(_subgradient(spec, theta)[1])


def _subgradient(spec: NormSpec, theta: ParamVector) -> tuple[float, np.ndarray]:
    """||theta|| and ``norm_subgradient`` at theta as a new flat array over
    its trainable prefix: the subgradient of the segment with the largest
    norm, zero on the others."""
    segments = _segments(spec, theta)
    values = [_block_norm(k, x) for k, x in segments]
    j = values.index(max(values))  # lowest index on ties
    kind, x = segments[j]
    value = values[j]
    if value == 0.0:
        raise ZeroVectorError("norm_subgradient is undefined at theta = 0")
    n = np.zeros(theta.trainable_flat().size)
    start = sum(other.size for _, other in segments[:j])
    n[start:start + x.size] = _face(kind, x)[0]
    return value, n
