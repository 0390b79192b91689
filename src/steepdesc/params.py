"""Block-structured parameter container over one contiguous buffer.

A parameter vector keeps its coordinates in one contiguous float64 buffer,
block after block (C order within a block); its blocks, matrices or vectors,
are reshaped views of it. The trainable blocks come first, so the
optimization variables are a leading slice, which ``trainable_view()``
returns without a copy, and the frozen blocks are the tail. ``flat()`` is
the buffer and ``from_flat`` wraps its input without a copy. Elementwise
operations are one numpy call on the buffer and return a new vector; ``dot``
and ``allclose`` reduce block by block. Only the function that builds a
vector fills its buffer in; once returned, a vector is never written.
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

    def like(self, flat: np.ndarray) -> "ParamVector":
        """This vector's blocks and flags over the coordinates ``flat``."""
        return from_flat(flat, self.shapes(), self.trainable)

    def check_same_structure(self, other: "ParamVector", what: str = "operand") -> None:
        if self.shapes() != other.shapes():
            raise ShapeMismatchError(
                f"{what}: block shapes {other.shapes()}, expected {self.shapes()}")

    def flat(self) -> np.ndarray:
        """All coordinates in block order (C order per block): the buffer."""
        return self.buffer

    def trainable_view(self) -> "ParamVector":
        """The optimization variables: the trainable blocks, a prefix view."""
        if all(self.trainable):
            return self
        kept = self.blocks[:self.trainable.count(True)]
        return ParamVector(kept, (), self.buffer[:sum(b.size for b in kept)])

    def embed_trainable(self, update: "ParamVector") -> "ParamVector":
        """Trainable-structured ``update`` in the full layout.

        The frozen tail is zero: the result is a full-shape displacement
        that never moves a frozen block.
        """
        expected = self.trainable_view().shapes()
        if update.shapes() != expected:
            raise ShapeMismatchError(
                f"embed_trainable: got shapes {update.shapes()}, expected {expected}")
        tail = self.size - update.size
        return self.like(np.concatenate((update.buffer, np.zeros(tail)))
                         if tail else update.buffer)

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
        n = self.trainable_view().size
        return self.like(np.concatenate((c * self.buffer[:n], self.buffer[n:])))

    def dot(self, other: "ParamVector") -> float:
        self.check_same_structure(other)
        return float(sum(np.dot(a.ravel(), b.ravel())
                         for a, b in zip(self.blocks, other.blocks)))

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
