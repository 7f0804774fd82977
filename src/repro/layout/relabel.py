"""Copy-free Morton transposition by quadrant relabeling.

The transpose of a quadtree-decomposed matrix is the same quadtree with
the off-diagonal children swapped and every child transposed::

    (X^T)11 = (X11)^T   (X^T)12 = (X21)^T
    (X^T)21 = (X12)^T   (X^T)22 = (X22)^T

Because a Morton buffer stores each quadrant contiguously, that identity
needs *no data movement at any level*: :class:`TransposedView` wraps a
:class:`~repro.layout.matrix.MortonMatrix` (or a
:class:`~repro.layout.matrix.BatchMortonMatrix`) and serves the recursion
the (12 <-> 21)-relabeled descent, bottoming out in a transposed
``leaf_view`` — the leaf kernel receives the same buffer through swapped
strides and lets BLAS handle the orientation.  An ``op(A)`` operand is
therefore one wrapper object, zero copies, and the Winograd additions
(flat ufuncs over whole quadrant buffers) are untouched: a flat add over
a relabeled operand adds exactly the same logical element pairs, just
enumerated in the base matrix's Morton permutation.

The one subtlety is *mixing* permutations: an S-intermediate computed
from transposed quadrants inherits the base (native) Morton permutation,
so the scratch that receives it must be descended with the same relabel.
:func:`relabel_scratch` reinterprets a plain scratch matrix in the
transposed operand's native geometry and wraps it — the recursion calls
it per level for whichever operand side is transposed.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = ["TransposedView", "transposed_view", "relabel_scratch"]


class TransposedView:
    """Zero-copy logical transpose of a Morton(-batch) matrix.

    Presents the duck-typed surface the Winograd recursion and
    ``core.ops`` use — swapped ``rows``/``cols``/``tile_r``/``tile_c``,
    relabeled ``quadrants()``, transposed ``leaf_view()``, forwarded
    ``buf``/``size``/``depth``/``batch`` — plus the ``transposed`` marker
    the recursion keys its per-level scratch relabeling on.  The relabeled
    quadrants and the leaf view are memoised, like the base's own views.
    """

    __slots__ = ("base", "buf", "size", "depth", "batch", "_quads", "_leaf",
                 "__weakref__")

    #: Marker the recursion checks before relabeling scratch.
    transposed = True

    def __init__(self, base) -> None:
        self.base = base
        self.buf = base.buf
        self.size = base.size
        self.depth = base.depth
        self.batch = base.batch
        self._quads = None
        self._leaf = None

    # ---------------------------------------------------------------- shape

    @property
    def rows(self) -> int:
        return self.base.cols

    @property
    def cols(self) -> int:
        return self.base.rows

    @property
    def tile_r(self) -> int:
        return self.base.tile_c

    @property
    def tile_c(self) -> int:
        return self.base.tile_r

    @property
    def padded_rows(self) -> int:
        return self.base.padded_cols

    @property
    def padded_cols(self) -> int:
        return self.base.padded_rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self.base.cols, self.base.rows)

    # ------------------------------------------------------------ structure

    def quadrant(self, qr: int, qc: int) -> "TransposedView":
        """Quadrant ``(qr, qc)`` of the transpose: the base's ``(qc, qr)``
        quadrant, transposed."""
        return transposed_view(self.base.quadrant(qc, qr))

    def quadrants(self) -> tuple["TransposedView", ...]:
        """(11, 12, 21, 22) of the transpose — the base's quadrants in
        (11, 21, 12, 22) order, each transposed (memoised)."""
        quads = self._quads
        if quads is None:
            q11, q12, q21, q22 = self.base.quadrants()
            quads = self._quads = tuple(
                transposed_view(q) for q in (q11, q21, q12, q22)
            )
        return quads

    def leaf_view(self) -> np.ndarray:
        """The base leaf through swapped strides (no copy).

        2-D: the base's Fortran-order ``(tile_r, tile_c)`` view transposed
        to C-order ``(tile_c, tile_r)``.  Batch: the base's
        ``(batch, tile_c, tile_r)`` stack with the tile axes swapped, so
        each slice keeps the "C-order image of the transposed tile"
        convention the batched kernel expects — here the transposed tile's
        transpose, i.e. the base tile itself.
        """
        if self._leaf is None:
            lv = self.base.leaf_view()
            self._leaf = lv.T if lv.ndim == 2 else lv.transpose(0, 2, 1)
        return self._leaf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TransposedView({self.base!r})"


def transposed_view(mm):
    """The logical transpose of ``mm``, with no data movement.

    Transposing a :class:`TransposedView` unwraps it back to the base.
    Each base keeps (weakly, so no reference cycle pins its buffer) the
    one wrapper built for it: while the wrapper is alive, every call
    returns it, and with it its memoised quadrant tree.
    """
    if mm.transposed:
        return mm.base
    ref = mm._t
    tv = ref() if ref is not None else None
    if tv is None:
        tv = TransposedView(mm)
        object.__setattr__(mm, "_t", weakref.ref(tv))
    return tv


def relabel_scratch(mm):
    """Reinterpret a plan-geometry scratch matrix for a transposed operand.

    ``mm`` is a scratch buffer allocated in the *operation* geometry
    (``op(A)``-shaped: ``tile_r x tile_c`` tiles).  When the operand it
    mirrors is a :class:`TransposedView`, intermediates written into the
    scratch by flat ufuncs carry the operand's *native* Morton
    permutation, so the scratch must be read back the same way: as a
    native-geometry matrix (tiles swapped) seen through a transpose.
    Same buffer, zero copies — only the descent labels change.  The
    relabel is built once per scratch matrix and cached on it.
    """
    tv = mm._relabel
    if tv is None:
        tv = transposed_view(type(mm)(
            mm.buf, mm.tile_c << mm.depth, mm.tile_r << mm.depth,
            mm.tile_c, mm.tile_r, mm.depth,
        ))
        object.__setattr__(mm, "_relabel", tv)
    return tv
