"""Block-structured parameter container over one contiguous buffer.

A parameter vector keeps its coordinates in one contiguous float64 buffer,
block after block (C order within a block); its blocks, matrices or vectors,
are reshaped views of it. The trainable blocks come first, so the
optimization variables are a leading slice, which ``trainable_view()``
returns without a copy (``trainable_blocks()`` and ``trainable_flat()`` give
its blocks and coordinates without building a vector), and the frozen blocks
are the tail. ``flat()`` is the buffer and ``from_flat`` wraps its input
without a copy; ``like`` does the same in an existing vector's layout,
slicing its block shapes instead of deriving the layout again. ``like``,
``views`` and ``dot_flat`` also take a flat array of the trainable prefix's
size, in the trainable blocks' layout, so the norm maps and the KKT report
need no trainable view of a vector with a frozen block. Elementwise
operations are one numpy call on the buffer and return a new vector;
``add_trainable`` adds a flat displacement to the trainable prefix and
copies the frozen tail, which is how every optimizer step forms the new
point. ``dot`` and ``allclose`` reduce block by block. Only the function
that builds a vector fills its buffer in; once returned, a vector is never
written.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ShapeMismatchError


def _views(buffer: np.ndarray, shapes) -> tuple[np.ndarray, ...]:
    shapes = tuple(shapes)
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) != buffer.size:
        raise ShapeMismatchError(
            f"flat vector has {buffer.size} coordinates, shapes need {sum(sizes)}"
        )
    views, offset = [], 0
    for shape, n in zip(shapes, sizes):
        views.append(buffer[offset:offset + n].reshape(shape))
        offset += n
    return tuple(views)


@dataclass(frozen=True)
class ParamVector:
    """Blocks viewing one float64 buffer, with per-block trainability flags
    (trainable blocks first). Built from arrays, the blocks are copied into
    a new buffer; ``buffer``, when given, is the one the blocks already
    view, as ``from_flat`` builds them."""

    blocks: tuple[np.ndarray, ...]
    trainable: tuple[bool, ...] = field(default=())
    buffer: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.buffer is None:
            arrays = [np.asarray(b, dtype=np.float64) for b in self.blocks]
            buffer = (np.concatenate([a.ravel() for a in arrays]) if arrays
                      else np.zeros(0))
            object.__setattr__(self, "buffer", buffer)
            object.__setattr__(self, "blocks",
                               _views(buffer, [a.shape for a in arrays]))
        trainable = tuple(self.trainable) or (True,) * len(self.blocks)
        if len(trainable) != len(self.blocks):
            raise ShapeMismatchError(
                f"trainable flags ({len(trainable)}) do not match "
                f"block count ({len(self.blocks)})"
            )
        if not all(trainable[:trainable.count(True)]):
            raise ShapeMismatchError(
                f"trainable blocks must come first, got flags {trainable}")
        object.__setattr__(self, "trainable", trainable)

    @classmethod
    def of(cls, *arrays, trainable: Sequence[bool] | None = None) -> "ParamVector":
        return cls(arrays, tuple(trainable or ()))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def size(self) -> int:
        return self.buffer.size

    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b.shape for b in self.blocks)

    def views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """The blocks of ``flat``, a 1-D array of ``size`` coordinates or of
        the trainable prefix's, in this vector's layout (of all blocks or of
        the trainable ones), as views."""
        blocks = self.blocks
        if flat.size != self.buffer.size:
            blocks = self.trainable_blocks()
            if flat.size != sum(b.size for b in blocks):
                raise ShapeMismatchError(f"flat vector has {flat.size} coordinates, "
                                         f"shapes need {self.buffer.size}")
        views, offset = [], 0
        for b in blocks:
            views.append(flat[offset:offset + b.size].reshape(b.shape))
            offset += b.size
        return tuple(views)

    def like(self, flat: np.ndarray) -> "ParamVector":
        """The blocks and flags of this vector, or of its trainable blocks,
        over ``flat``, a 1-D contiguous float64 array of ``size`` coordinates
        or of the trainable prefix's, which becomes the buffer."""
        views = self.views(flat)
        return ParamVector(views, self.trainable[:len(views)], flat)

    def check_same_structure(self, other: "ParamVector", what: str = "operand") -> None:
        if self.shapes() != other.shapes():
            raise ShapeMismatchError(
                f"{what}: block shapes {other.shapes()}, expected {self.shapes()}")

    def flat(self) -> np.ndarray:
        """All coordinates in block order (C order per block): the buffer."""
        return self.buffer

    def trainable_blocks(self) -> tuple[np.ndarray, ...]:
        """The trainable blocks, the leading ones."""
        return self.blocks[:self.trainable.count(True)]

    def trainable_flat(self) -> np.ndarray:
        """The trainable blocks' coordinates: a prefix view of the buffer."""
        kept = self.trainable_blocks()
        if len(kept) == len(self.blocks):
            return self.buffer
        return self.buffer[:sum(b.size for b in kept)]

    def trainable_view(self) -> "ParamVector":
        """The optimization variables: the trainable blocks, a prefix view."""
        if all(self.trainable):
            return self
        return ParamVector(self.trainable_blocks(), (), self.trainable_flat())

    def add_trainable(self, delta: np.ndarray) -> "ParamVector":
        """This vector with the flat displacement ``delta`` added to its
        trainable prefix; the frozen tail is copied, so it never moves."""
        head = self.trainable_flat()
        if delta.shape != head.shape:
            raise ShapeMismatchError(
                f"add_trainable: got shape {delta.shape}, expected {head.shape}")
        if head.size == self.buffer.size:
            return self.like(self.buffer + delta)
        return self.like(np.concatenate((head + delta, self.buffer[head.size:])))

    def copy(self) -> "ParamVector":
        return self.like(self.buffer.copy())

    def zeros_like(self) -> "ParamVector":
        return self.like(np.zeros(self.size))

    def __add__(self, other: "ParamVector") -> "ParamVector":
        self.check_same_structure(other)
        return self.like(self.buffer + other.buffer)

    def __sub__(self, other: "ParamVector") -> "ParamVector":
        self.check_same_structure(other)
        return self.like(self.buffer - other.buffer)

    def scaled(self, c: float) -> "ParamVector":
        """Every block multiplied by ``c`` (plain vector scaling)."""
        return self.like(c * self.buffer)

    def scaled_trainable(self, c: float) -> "ParamVector":
        """Trainable blocks multiplied by ``c``; frozen blocks untouched.

        This is the scaling under which the homogeneity identity
        f(x; c*theta) = c^L f(x; theta) is stated.
        """
        head = self.trainable_flat()
        out = self.buffer.copy()
        np.multiply(head, c, out=out[:head.size])
        return self.like(out)

    def dot(self, other: "ParamVector") -> float:
        self.check_same_structure(other)
        return self.dot_flat(other.buffer)

    def dot_flat(self, flat: np.ndarray) -> float:
        """<self, v> for v's coordinates ``flat``, reduced block by block;
        over the trainable blocks when ``flat`` is a trainable prefix."""
        return float(sum(a.ravel().dot(b.ravel())
                         for a, b in zip(self.blocks, self.views(flat))))

    def allfinite(self) -> bool:
        return bool(np.isfinite(self.buffer).all())

    def allclose(self, other: "ParamVector", rtol: float = 1e-12, atol: float = 0.0) -> bool:
        return self.shapes() == other.shapes() and all(
            np.allclose(a, b, rtol=rtol, atol=atol)
            for a, b in zip(self.blocks, other.blocks)
        )


def from_flat(flat: np.ndarray, shapes: Iterable[tuple[int, ...]],
              trainable: Sequence[bool] | None = None) -> ParamVector:
    """A ParamVector over flat coordinates and block shapes; a contiguous
    float64 ``flat`` becomes its buffer without a copy."""
    flat = np.ascontiguousarray(flat, dtype=np.float64).reshape(-1)
    return ParamVector(_views(flat, shapes), tuple(trainable or ()), flat)
