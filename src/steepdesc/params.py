"""Block-structured parameter container: an interned layout over one buffer.

A ``ParamVector`` is (layout, buffer): one contiguous float64 buffer holds
its coordinates block after block (C order within a block), and its blocks
are views of it, built on first read from the ``Layout``'s slices. Layouts
are interned by (shapes, trainable flags) and checked once, when first
built, so a run's vectors share one and the same-structure test is ``is``.
Trainable blocks come first: the optimization variables are a leading slice
and the frozen blocks the tail. ``like``, ``Layout.views`` and ``dot_flat``
take a flat array of the full or of the trainable prefix's size. Operations
return a new vector; once returned, a vector is never written.
``__post_init__`` runs once per vector built, however it is built.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ShapeMismatchError

_LAYOUTS: dict = {}


@dataclass(frozen=True, eq=False, slots=True)
class Layout:
    """Block shapes, flags and (start, stop, shape) slices, the size, and the
    trainable prefix's block count, size and own layout (or this one)."""

    shapes: tuple
    trainable: tuple
    slices: tuple
    size: int
    n_trainable: int
    prefix_size: int
    prefix: Optional["Layout"]

    @staticmethod
    def of(shapes: Iterable, trainable: Optional[Sequence[bool]] = None) -> "Layout":
        shapes = tuple(tuple(map(operator.index, s)) for s in shapes)
        trainable = tuple(trainable or ()) or (True,) * len(shapes)
        booleans = all(type(t) is bool for t in trainable)   # before the lookup: 1 == True
        if booleans and (shapes, trainable) in _LAYOUTS:
            return _LAYOUTS[shapes, trainable]
        n = trainable.count(True)
        if (not booleans or len(trainable) != len(shapes) or not all(trainable[:n])
                or min((k for s in shapes for k in s), default=0) < 0):
            raise ShapeMismatchError(f"flags {trainable} for shapes {shapes}: one boolean per "
                                     f"block, trainable blocks must come first, no size < 0")
        stops = list(accumulate((math.prod(s) for s in shapes), initial=0))
        layout = Layout(shapes, trainable, tuple(zip(stops, stops[1:], shapes)),
                        stops[-1], n, stops[n], None)
        object.__setattr__(layout, "prefix",
                           Layout.of(shapes[:n]) if n < len(shapes) else layout)
        _LAYOUTS[shapes, trainable] = layout
        return layout

    __reduce__ = lambda self: (Layout.of, (self.shapes, self.trainable))  # copies re-intern

    def views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """The blocks of ``flat`` in this layout, or in its prefix's."""
        layout = self if flat.size == self.size else self.prefix
        if flat.size != layout.size:
            raise ShapeMismatchError(f"{flat.size} coordinates, shapes need {self.size}")
        return tuple([flat[start:stop].reshape(shape) for start, stop, shape in layout.slices])


class ParamVector:
    """A layout over a float64 buffer: a copy of ``blocks``."""

    __slots__ = ("layout", "buffer", "_blocks")

    def __init__(self, blocks: Iterable, trainable: Sequence[bool] = ()):
        blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        buffer = np.concatenate([a.ravel() for a in blocks] + [np.zeros(0)])
        self.layout = Layout.of([b.shape for b in blocks], trainable)
        self.buffer, self._blocks = buffer, None
        self.__post_init__()

    def __post_init__(self):
        if self.buffer.size != self.layout.size:
            raise ShapeMismatchError(f"{self.buffer.size} coordinates, "
                                     f"shapes need {self.layout.size}")

    @classmethod
    def of(cls, *arrays, trainable: Sequence[bool] | None = None) -> "ParamVector":
        return cls(arrays, tuple(trainable or ()))

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        if self._blocks is None:
            self._blocks = self.layout.views(self.buffer)
        return self._blocks

    trainable = property(lambda self: self.layout.trainable)
    size = property(lambda self: self.layout.size)

    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return self.layout.shapes

    def like(self, flat: np.ndarray) -> "ParamVector":
        """This layout, or its prefix's, over the 1-D float64 buffer ``flat``."""
        layout = self.layout
        return _vector(layout if flat.size == layout.size else layout.prefix, flat)

    def check_same_structure(self, other: "ParamVector", what: str = "operand") -> None:
        if self.layout is not other.layout:
            raise ShapeMismatchError(f"{what}: layout {other.shapes()} {other.trainable}, "
                                     f"expected {self.shapes()} {self.trainable}")

    def flat(self) -> np.ndarray:
        """All coordinates in block order (C order per block): the buffer."""
        return self.buffer

    def trainable_blocks(self) -> tuple[np.ndarray, ...]:
        return self.blocks[:self.layout.n_trainable]

    def trainable_flat(self) -> np.ndarray:
        """The trainable blocks' coordinates: a prefix view of the buffer."""
        layout = self.layout
        return self.buffer if layout.prefix is layout else self.buffer[:layout.prefix_size]

    def add_trainable(self, delta: np.ndarray) -> "ParamVector":
        """``delta`` added to the trainable prefix; the frozen tail is copied."""
        layout, buffer, n = self.layout, self.buffer, self.layout.prefix_size
        if delta.shape != (n,):
            raise ShapeMismatchError(f"add_trainable: got shape {delta.shape}, expected {(n,)}")
        if layout.prefix is layout:
            return _vector(layout, buffer + delta)
        return _vector(layout, np.concatenate((buffer[:n] + delta, buffer[n:])))

    def __add__(self, other: "ParamVector") -> "ParamVector":
        self.check_same_structure(other)
        return _vector(self.layout, self.buffer + other.buffer)

    def __sub__(self, other: "ParamVector") -> "ParamVector":
        self.check_same_structure(other)
        return _vector(self.layout, self.buffer - other.buffer)

    def scaled(self, c: float) -> "ParamVector":
        """Every block multiplied by ``c`` (plain vector scaling)."""
        return _vector(self.layout, c * self.buffer)

    def scaled_trainable(self, c: float) -> "ParamVector":
        """Trainable blocks times ``c``: f(x; c*theta) = c^L f(x; theta)."""
        n = self.layout.prefix_size
        out = self.buffer.copy()
        np.multiply(self.buffer[:n], c, out=out[:n])
        return _vector(self.layout, out)

    def dot(self, other: "ParamVector") -> float:
        self.check_same_structure(other)
        return self.dot_flat(other.buffer)

    def dot_flat(self, flat: np.ndarray) -> float:
        """<self, v> for v's full or trainable ``flat``, block by block."""
        return float(sum([a.ravel().dot(b.ravel())
                          for a, b in zip(self.blocks, self.layout.views(flat))]))

    def allfinite(self) -> bool:
        return bool(np.isfinite(self.buffer).all())

    def allclose(self, other: "ParamVector", rtol: float = 1e-12, atol: float = 0.0) -> bool:
        return self.shapes() == other.shapes() and all(
            np.allclose(a, b, rtol=rtol, atol=atol)
            for a, b in zip(self.blocks, other.blocks))


def _vector(layout: Layout, buffer: np.ndarray) -> ParamVector:
    v = object.__new__(ParamVector)
    v.layout, v.buffer, v._blocks = layout, buffer, None
    v.__post_init__()
    return v


def from_flat(flat: np.ndarray, shapes: Iterable[tuple[int, ...]],
              trainable: Sequence[bool] | None = None) -> ParamVector:
    """A vector over ``flat``, its buffer if contiguous float64, no copy."""
    flat = np.ascontiguousarray(flat, dtype=np.float64).reshape(-1)
    return _vector(Layout.of(shapes, trainable), flat)
