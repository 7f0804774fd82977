"""Strided views as Winograd operands: the conversion-free container.

A :class:`StridedMatrix` gives the recursion in :mod:`repro.core.winograd`
the duck-typed surface of a :class:`~repro.layout.matrix.MortonMatrix`
(``quadrants()``, ``leaf_view()``, ``buf``, ``size``, ``depth``,
``tile_r``/``tile_c``) over a 2-D view of a dense array: a quadrant is a
slice of the view and a leaf is the view itself.  The engine runs
unpadded plans with BLAS-sized leaves on views of the caller's ``op(A)``,
``op(B)`` and output, with no Morton copy; the BLAS packs its own panels.
Results are bit-identical to the Morton path: the additions are
elementwise, and every leaf product writes a column-major destination as
it does into a Morton tile (DESIGN.md §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StridedMatrix", "memory_order", "PAPER_TILE_MAX", "BLAS_SMALL_MNK",
]

#: Top of the paper's leaf-tile range (16..64, Section 3.4).  Unpadded
#: plans whose every leaf tile is larger run on strided views; plans in the
#: paper's range keep Morton order, the layout they were tuned for.
PAPER_TILE_MAX = 64

#: Leaf products of at most this many ``m*k*n`` keep Morton order too.
#: OpenBLAS routes them to small-matrix kernels whose rounding depends on
#: the operands' memory order (on an AVX-512 host 31 of 68 order
#: combinations changed bits below the bound, 0 of 1,132 above it), while
#: larger products are packed first and round the same in every layout.
BLAS_SMALL_MNK = 100**3


def memory_order(x: np.ndarray) -> str:
    """``"F"`` when ``x`` steps fastest down its columns, else ``"C"``."""
    s0, s1 = x.strides
    return "F" if abs(s0) <= abs(s1) else "C"


@dataclass(frozen=True, slots=True, eq=False)
class StridedMatrix:
    """A ``(tile_r << depth, tile_c << depth)`` 2-D view, recursion-ready.

    ``buf`` is the view; its four quadrants at each level are memoised
    like a Morton container's, so pooled scratch grows its view tree once.
    The geometry is immutable; the contents of ``buf`` are not.
    """

    buf: np.ndarray
    depth: int
    tile_r: int = field(init=False)
    tile_c: int = field(init=False)
    size: int = field(init=False, repr=False)
    _quads: tuple | None = field(init=False, default=None, repr=False)

    #: Never a relabeled transpose or a batch stack (the recursion and
    #: ``core.ops`` dispatch on these).
    transposed = False
    batch = None

    def __post_init__(self) -> None:
        rows, cols = self.buf.shape
        tr, tc = rows >> self.depth, cols >> self.depth
        if (tr << self.depth, tc << self.depth) != (rows, cols) or not tr * tc:
            raise ValueError(
                f"a {rows}x{cols} view has no unpadded depth-{self.depth} "
                "tiling"
            )
        object.__setattr__(self, "tile_r", tr)
        object.__setattr__(self, "tile_c", tc)
        object.__setattr__(self, "size", rows * cols)

    def quadrants(self) -> tuple:
        """The four quadrant views in (11, 12, 21, 22) order (memoised)."""
        quads = self._quads
        if quads is None:
            if self.depth == 0:
                raise ValueError("a leaf tile has no quadrants")
            b, d = self.buf, self.depth - 1
            r, c = b.shape[0] >> 1, b.shape[1] >> 1
            quads = (
                StridedMatrix(b[:r, :c], d), StridedMatrix(b[:r, c:], d),
                StridedMatrix(b[r:, :c], d), StridedMatrix(b[r:, c:], d),
            )
            object.__setattr__(self, "_quads", quads)
        return quads

    def leaf_view(self) -> np.ndarray:
        """The view itself, as a BLAS operand (depth must be 0)."""
        if self.depth != 0:
            raise ValueError(f"leaf_view requires depth 0, got {self.depth}")
        return self.buf
