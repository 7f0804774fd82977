"""Interface-level conversion between dense (column-major) and Morton order.

The paper converts the input matrices to Morton order at the top level and
the result back at the end (Section 3.5), measuring the cost at 5-15% of
total execution time (Figure 7).  Transposition — the BLAS ``op(X)``
parameter — is fused into the conversion so a single core routine suffices.

Morton order is a pure axis permutation of the padded matrix.  A depth-``d``
buffer with ``tr x tc`` column-major leaf tiles, reshaped to
``(2, 2) * d + (tc, tr)``, has the axes ``(r_d, c_d, ..., r_1, c_1,
c_leaf, r_leaf)`` (row bit more significant in each pair, Figure 1).
Transposed to ``(r_d ... r_1, r_leaf, c_d ... c_1, c_leaf)`` (see
:meth:`ConversionTable.view`) its axes match those of the dense matrix
split as ``(2,) * d + (tr,)`` by ``(2,) * d + (tc,)``, so one strided
``np.copyto`` converts the whole padded matrix.

The logical matrix is usually smaller than the padded one.  An extent
``[lo, hi)`` on one axis splits into dyadic blocks of whole tiles plus
partial leaf tiles (:func:`_segments`); a rectangle is then the product of
its row and column segments — at most about ``(d + 1)**2`` *boxes*, each
one strided copy.  :class:`ConversionTable` computes a geometry's boxes
once and caches them; it holds no per-element arrays.  Every conversion —
dense to Morton, Morton to dense with the ``beta`` epilogue, stacks with a
leading batch axis, and the fused S1/S3/T1/T3 packing (a ufunc whose
``out=`` is a box) — runs through those boxes, so a converted element is
always the exact value the dense array held.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .matrix import BatchMortonMatrix, MortonMatrix

__all__ = [
    "dense_to_morton",
    "morton_to_dense",
    "dense_to_morton_batch",
    "morton_to_dense_batch",
    "dense_to_morton_quadrants",
    "pack_morton_quarter",
    "pack_morton_quarter_batch",
    "ConversionTable",
    "conversion_table",
]


def _segments(lo: int, hi: int, leaf: int, depth: int) -> list[tuple]:
    """Split the extent ``[lo, hi)`` of one axis into Morton-aligned segments.

    Each segment is ``(index, start, stop, split)``: ``index`` selects it
    from the ``depth`` bit axes plus the leaf axis of one side of a
    :meth:`ConversionTable.view` (the bits above the segment's block are
    fixed integers, the ``k`` bits inside it full slices, the leaf a
    slice); ``[start, stop)`` is the segment on the dense axis, and
    ``split`` = ``(2,) * k + (leaf extent,)`` is the shape that dense range
    takes to line up with the indexed view.  A segment is either an
    aligned block of ``2**k`` whole tiles or a part of one tile.
    """
    segs = []
    pos = lo
    while pos < hi:
        q, r = divmod(pos, leaf)
        if r or hi - pos < leaf:
            stop = min(hi, (q + 1) * leaf)
            k, lsl = 0, slice(r, stop - q * leaf)
        else:
            whole = (hi - pos) // leaf
            k = 0
            while k < depth and q % (2 << k) == 0 and (2 << k) <= whole:
                k += 1
            stop = pos + (leaf << k)
            lsl = slice(0, leaf)
        fixed = tuple((q >> b) & 1 for b in range(depth - 1, k - 1, -1))
        index = fixed + (slice(None),) * k + (lsl,)
        segs.append((index, pos, stop, (2,) * k + (lsl.stop - lsl.start,)))
        pos = stop
    return segs


class ConversionTable:
    """The strided box copies that convert one Morton geometry.

    Describes a ``rows x cols`` logical matrix stored with ``tile_r x
    tile_c`` leaf tiles at ``depth``.  :attr:`boxes` covers the whole
    logical matrix and :meth:`region` any rectangle of the padded one;
    each box is ``(index, rows, cols, split)`` — the view index
    (``Ellipsis`` first, so a leading batch axis passes through), the
    dense row and column slices, and the shape the dense box takes to
    match the indexed view.  Regions are computed once and cached;
    nothing scales with the element count.  Shareable across threads
    (a racing cache fill computes the same value twice).
    """

    def __init__(self, rows: int, cols: int, tile_r: int, tile_c: int,
                 depth: int) -> None:
        self.rows, self.cols = rows, cols
        self.tile_r, self.tile_c, self.depth = tile_r, tile_c, depth
        self._regions: dict[tuple, tuple] = {}
        d = depth
        self._perm = (
            tuple(range(0, 2 * d, 2)) + (2 * d + 1,)
            + tuple(range(1, 2 * d, 2)) + (2 * d,)
        )
        self.boxes = self.region(0, rows, 0, cols)

    @property
    def geometry(self) -> tuple:
        return (self.rows, self.cols, self.tile_r, self.tile_c, self.depth)

    @property
    def padded_size(self) -> int:
        """Flat Morton-buffer length of this geometry (pads included)."""
        return (self.tile_r << self.depth) * (self.tile_c << self.depth)

    def region(self, r0: int, r1: int, c0: int, c1: int) -> tuple:
        """The boxes of the rectangle ``[r0, r1) x [c0, c1)`` (cached)."""
        key = (r0, r1, c0, c1)
        boxes = self._regions.get(key)
        if boxes is None:
            rsegs = _segments(r0, r1, self.tile_r, self.depth)
            csegs = _segments(c0, c1, self.tile_c, self.depth)
            boxes = tuple(
                ((Ellipsis,) + ri + ci, slice(ra, rb), slice(ca, cb),
                 rs + cs)
                for ri, ra, rb, rs in rsegs
                for ci, ca, cb, cs in csegs
            )
            self._regions[key] = boxes
        return boxes

    def view(self, buf: np.ndarray) -> np.ndarray:
        """``buf`` (``(..., padded_size)``) with the dense matrix's axes.

        The result has the axes ``(..., r_d ... r_1, r_leaf, c_d ... c_1,
        c_leaf)`` and shares ``buf``'s memory.
        """
        lead = buf.shape[:-1]
        d = self.depth
        v = buf.reshape(lead + (2, 2) * d + (self.tile_c, self.tile_r))
        n = len(lead)
        return v.transpose(tuple(range(n)) + tuple(n + p for p in self._perm))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConversionTable({self.rows}x{self.cols}, tile "
            f"{self.tile_r}x{self.tile_c}, depth {self.depth}, "
            f"{len(self.boxes)} boxes)"
        )


@lru_cache(maxsize=64)
def conversion_table(rows: int, cols: int, tile_r: int, tile_c: int,
                     depth: int) -> ConversionTable:
    """The shared :class:`ConversionTable` of one geometry."""
    return ConversionTable(rows, cols, tile_r, tile_c, depth)


def _split(dense: np.ndarray, rs: slice, cs: slice, split) -> np.ndarray:
    """The dense box ``dense[..., rs, cs]`` split to line up with a view."""
    box = dense[..., rs, cs]
    return box.reshape(box.shape[:-2] + split)


def _table_for(mm, table: ConversionTable | None) -> ConversionTable:
    """``table``, checked against ``mm``'s geometry, or the shared one."""
    geo = (mm.rows, mm.cols, mm.tile_r, mm.tile_c, mm.depth)
    if table is None:
        return conversion_table(*geo)
    if table.geometry != geo:
        raise ValueError(f"{table!r} does not describe {mm!r}")
    return table


def _put(view: np.ndarray, src: np.ndarray, boxes) -> None:
    for idx, rs, cs, split in boxes:
        view[idx] = _split(src, rs, cs, split)


def _operand(a, dtype, transpose: bool, shape) -> np.ndarray:
    """``op(a)`` as a ``dtype`` array of logical ``shape``."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"expected 2-D input, got ndim={a.ndim}")
    src = a.T if transpose else a
    if src.shape != tuple(shape):
        raise ValueError(f"op(a) shape {src.shape} != destination {shape}")
    return src


def dense_to_morton(
    a: np.ndarray, out: MortonMatrix, transpose: bool = False,
    zero_pad: bool = True, table: ConversionTable | None = None,
) -> MortonMatrix:
    """Copy dense ``a`` (or its transpose) into Morton matrix ``out``.

    ``out.shape`` must equal the logical shape of ``op(a)``.  Returns
    ``out`` for chaining.  ``zero_pad=False`` skips re-zeroing the pad
    region — valid only when the caller guarantees it is already zero and
    has stayed zero since (the engine's pooled operand buffers maintain
    exactly this invariant, so repeated conversions touch only the logical
    elements).  ``table`` is the geometry's cached
    :class:`ConversionTable` (looked up when omitted).
    """
    src = _operand(a, out.buf.dtype, transpose, out.shape)
    table = _table_for(out, table)
    if zero_pad and out.size != out.rows * out.cols:
        out.buf.fill(0.0)
    _put(table.view(out.buf), src, table.boxes)
    return out


def morton_to_dense(
    m: MortonMatrix, out: np.ndarray | None = None,
    table: ConversionTable | None = None, beta: float = 0.0,
) -> np.ndarray:
    """Copy Morton matrix ``m`` back to a dense array of its logical shape.

    A fresh destination is allocated in Fortran order (the layout the BLAS
    interface traffics in); pass ``out`` to write into an existing array.

    ``beta`` fuses the GEMM accumulate into the conversion: each box of
    ``out`` is scaled by ``beta`` and then has the product added — the
    same two operations per element as ``out *= beta; out += dense(m)``,
    so the result is bit-identical, but box by box while it is in cache.
    Requires ``out``.
    """
    if out is None:
        if beta != 0.0:
            raise ValueError("beta != 0 requires an existing out array")
        out = np.empty((m.rows, m.cols), dtype=m.buf.dtype, order="F")
    elif out.shape != m.shape:
        raise ValueError(f"out shape {out.shape} != logical shape {m.shape}")
    table = _table_for(m, table)
    view = table.view(m.buf)
    for idx, rs, cs, split in table.boxes:
        dst = _split(out, rs, cs, split)
        if beta != 0.0:
            dst *= beta
            dst += view[idx]
        else:
            dst[...] = view[idx]
    return out


def dense_to_morton_batch(
    arrs, out: BatchMortonMatrix, transpose: bool = False,
    table: ConversionTable | None = None,
) -> BatchMortonMatrix:
    """Convert ``len(arrs)`` same-geometry dense arrays into a Morton stack.

    Item ``i`` lands in row ``i`` through the geometry's boxes.  ``out``'s
    rows must already have zeroed pads (the pooled batch buffers maintain
    this invariant: the batched recursion never writes operand stacks);
    only logical elements are written.
    """
    n = len(arrs)
    if n > out.batch:
        raise ValueError(f"{n} items exceed batch capacity {out.batch}")
    table = _table_for(out, table)
    view = table.view(out.buf)
    shape = (out.rows, out.cols)
    for i in range(n):
        src = _operand(arrs[i], out.buf.dtype, transpose, shape)
        _put(view[i], src, table.boxes)
    return out


def morton_to_dense_batch(
    m: BatchMortonMatrix, n_items: int,
    table: ConversionTable | None = None,
) -> list:
    """Convert the first ``n_items`` rows of a Morton stack back to dense.

    Returns Fortran-order arrays (the BLAS interface layout), one per item:
    per-item views of one freshly allocated block, filled by one strided
    copy per box for the whole stack.  Nothing aliases the stack.
    """
    table = _table_for(m, table)
    blk = np.empty((n_items, m.cols, m.rows), dtype=m.buf.dtype)
    dense = blk.transpose(0, 2, 1)
    view = table.view(m.buf[:n_items])
    for idx, rs, cs, split in table.boxes:
        _split(dense, rs, cs, split)[...] = view[idx]
    return [blk[i].T for i in range(n_items)]


# ------------------------------------------------------- fused packing


def _half_extent(table: ConversionTable, q: int, axis: int):
    """Padded half size and quadrant row/column ``q``'s logical extent."""
    leaf, n = ((table.tile_r, table.rows) if axis == 0
               else (table.tile_c, table.cols))
    half = (leaf << table.depth) >> 1
    return half, min(max(n - q * half, 0), half)


def dense_to_morton_quadrants(
    a: np.ndarray, out: MortonMatrix, quads, transpose: bool = False,
    zero_pad: bool = True, table: ConversionTable | None = None,
) -> MortonMatrix:
    """Convert only the listed quadrants of ``op(a)`` into ``out``.

    The fused packing path's partner to :func:`dense_to_morton`: the
    quadrants an execution actually consumes as plain Morton operands are
    copied here, while the remaining quadrant's buffer slot receives a
    packed operand sum (:func:`pack_morton_quarter`) instead of a copy —
    the reason the fused path converts one quarter less per operand.
    ``quads`` is an iterable of ``(qr, qc)`` quadrant coordinates; each
    converted quadrant's buffer slot is written exactly as
    :func:`dense_to_morton` would have written it (same elements, same
    zero pads).
    """
    src = _operand(a, out.buf.dtype, transpose, out.shape)
    table = _table_for(out, table)
    if table.depth < 1:
        raise ValueError("fused packing needs depth >= 1")
    quarter = out.size // 4
    view = table.view(out.buf)
    for qr, qc in quads:
        h2, h = _half_extent(table, qr, 0)
        w2, w = _half_extent(table, qc, 1)
        if zero_pad and (h < h2 or w < w2):
            z = (qr << 1) | qc
            out.buf[z * quarter : (z + 1) * quarter] = 0.0
        r0, c0 = qr * h2, qc * w2
        _put(view, src, table.region(r0, r0 + h, c0, c0 + w))
    return out


def pack_morton_quarter(
    dst: np.ndarray, a: np.ndarray, op: str, quad0, quad1,
    table: ConversionTable, transpose: bool = False,
) -> None:
    """Fused convert-and-add: write ``Q0 <op> Q1`` into a quarter buffer.

    ``Q0``/``Q1`` are quadrants (``(qr, qc)`` coordinates) of the *dense*
    operand ``op(a)``, which ``table`` describes; ``dst`` is a flat Morton
    quarter buffer (an operand quadrant slot or one level of recursion
    scratch).  One read of each source quadrant produces the Winograd
    operand sum directly in Morton order, with ``out=`` set to each box.

    Bit-identity with the two-pass path (convert, then add the quadrant
    slots) holds region by region: where both quadrants have logical
    elements the ufunc sees the same two values; where exactly one side
    is pad the literal ``x <op> 0.0`` / ``0.0 <op> x`` is computed
    (matching IEEE-754 signed-zero behaviour of a zeroed pad); where both
    are pad ``dst`` holds the ``+0.0`` that ``0 +/- 0`` produces.
    """
    src = _operand(a, dst.dtype, transpose, (table.rows, table.cols))
    if table.depth < 1:
        raise ValueError("fused packing needs depth >= 1")
    ufunc = np.add if op == "+" else np.subtract
    (qr0, qc0), (qr1, qc1) = quad0, quad1
    h2, h0 = _half_extent(table, qr0, 0)
    w2, w0 = _half_extent(table, qc0, 1)
    _, h1 = _half_extent(table, qr1, 0)
    _, w1 = _half_extent(table, qc1, 1)
    s0 = src[qr0 * h2 : qr0 * h2 + h0, qc0 * w2 : qc0 * w2 + w0]
    s1 = src[qr1 * h2 : qr1 * h2 + h1, qc1 * w2 : qc1 * w2 + w1]
    quarter = conversion_table(h2, w2, table.tile_r, table.tile_c,
                               table.depth - 1)
    if not ((h0, w0) == (h2, w2) or (h1, w1) == (h2, w2)):
        dst.fill(0.0)  # some of the quarter is pad on both sides
    view = quarter.view(dst)
    hc, wc = min(h0, h1), min(w0, w1)
    for idx, rs, cs, split in quarter.region(0, hc, 0, wc):
        ufunc(_split(s0, rs, cs, split), _split(s1, rs, cs, split),
              out=view[idx])

    # Each quadrant's remainder beyond the shared (hc, wc) core (disjoint
    # from the other's) pairs with the other side's zeroed pad.
    for s, h, w, left in ((s0, h0, w0, True), (s1, h1, w1, False)):
        for rect in ((0, h, wc, w), (hc, h, 0, wc)):
            for idx, rs, cs, split in quarter.region(*rect):
                part = _split(s, rs, cs, split)
                if left:
                    ufunc(part, 0.0, out=view[idx])
                else:
                    ufunc(0.0, part, out=view[idx])


def pack_morton_quarter_batch(
    dst: np.ndarray, arrs, op: str, quad0, quad1,
    table: ConversionTable, transpose: bool = False,
) -> None:
    """Per-item :func:`pack_morton_quarter` over rows of a quarter stack.

    ``dst`` is a 2-D ``(cap, quarter)`` stack — an operand-stack quadrant
    column slice or one level of batch workspace scratch; row ``i``
    receives item ``i``'s packed quarter.
    """
    for i, a in enumerate(arrs):
        pack_morton_quarter(dst[i], a, op, quad0, quad1, table,
                            transpose=transpose)
