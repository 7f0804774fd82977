"""Recursion backends: one Winograd control structure, many interpretations.

The Strassen-Winograd recursion in :mod:`repro.core.winograd` is written
against this small operation vocabulary over Morton matrices.  Two backends
implement it:

* :class:`NumpyOps` — performs the arithmetic.  Because every Morton
  quadrant is a contiguous buffer, all 15 Winograd additions are single
  1-D vector operations (the paper's "single loop rather than two nested
  loops", Section 3.3), executed in place with no temporaries.
* ``TraceOps`` (in :mod:`repro.cachesim.tracegen`) — emits the memory
  address trace of exactly the same computation for the cache simulator,
  replacing ATOM in the paper's methodology.

Keeping a single recursion ensures the simulated cache behaviour belongs to
the very code being timed, not to a drifting re-implementation.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Protocol

import numpy as np

from ..blas.kernels import (
    LeafKernel,
    get_batch_kernel,
    get_kernel,
    guarded_kernel,
)
from ..layout.matrix import MortonMatrix
from ..layout.strided import memory_order

__all__ = ["WinogradOps", "NumpyOps", "FUSE_CHUNK_ELEMS"]

#: Elements per chunk of a fused three-operand addition pass: 1 << 14
#: float64 values = 128 KiB, sized so the chunk intermediate stays
#: cache-resident while each full-size operand is streamed exactly once.
FUSE_CHUNK_ELEMS = 1 << 14


class WinogradOps(Protocol):
    """Operations the recursion needs; all operands are Morton matrices.

    ``add``/``sub``/``iadd``/``leaf_mult`` are the classic vocabulary every
    backend implements (including the cache-simulator trace emitter).  The
    low-memory schedules (:mod:`repro.core.winograd`, ``memory=`` other
    than ``"classic"``) additionally require the fused passes ``add3`` and
    ``sub_into``.
    """

    def add(self, dst: MortonMatrix, x: MortonMatrix, y: MortonMatrix) -> None:
        """``dst = x + y`` (dst may alias x or y)."""

    def sub(self, dst: MortonMatrix, x: MortonMatrix, y: MortonMatrix) -> None:
        """``dst = x - y`` (dst may alias x or y)."""

    def iadd(self, dst: MortonMatrix, x: MortonMatrix) -> None:
        """``dst += x``."""

    def add3(
        self, dst: MortonMatrix, x: MortonMatrix, y: MortonMatrix, z: MortonMatrix
    ) -> None:
        """``dst = (x + y) + z`` in one fused pass (dst may alias any operand)."""

    def sub_into(self, dst: MortonMatrix, x: MortonMatrix) -> None:
        """``dst = x - dst`` (reversed in-place subtraction)."""

    def leaf_mult(self, a: MortonMatrix, b: MortonMatrix, dst: MortonMatrix) -> None:
        """``dst = a . b`` on leaf tiles (depth 0)."""

    # The alpha/beta-folding vocabulary (``add_scale``, ``iadd_scale``,
    # ``add3_scale``, ``accumulate``) is NumpyOps-only: the engine invokes
    # it exclusively for non-default GemmSpecs, which never reach the
    # cache-simulator backend, so TraceOps keeps the classic surface.


_fuse_scratch = threading.local()


def _fuse_chunk(dtype: np.dtype, elems: int = FUSE_CHUNK_ELEMS) -> np.ndarray:
    """Per-thread cache-sized staging chunk for fused addition passes.

    One grow-only buffer per dtype; ``elems`` may exceed the default when a
    batched pass needs at least one full batch column per chunk.
    """
    bufs = getattr(_fuse_scratch, "bufs", None)
    if bufs is None:
        bufs = _fuse_scratch.bufs = {}
    key = np.dtype(dtype).str
    buf = bufs.get(key)
    if buf is None or buf.size < elems:
        buf = bufs[key] = np.empty(max(elems, FUSE_CHUNK_ELEMS), dtype=dtype)
    return buf


def _stage(tmp: np.ndarray, rows: int, cols: int, like: np.ndarray) -> np.ndarray:
    """A ``(rows, cols)`` chunk of ``tmp`` in ``like``'s memory order, so a
    fused pass over a 2-D operand streams like-ordered arrays."""
    if memory_order(like) == "F":
        return tmp[: rows * cols].reshape(cols, rows).T
    return tmp[: rows * cols].reshape(rows, cols)


def _same_size(dst: MortonMatrix, *rest: MortonMatrix) -> None:
    for m in rest:
        if m.size != dst.size:
            raise ValueError(
                f"buffer size mismatch: {dst.size} vs {m.size} "
                "(operands of a Winograd addition must be congruent)"
            )


class NumpyOps:
    """The arithmetic backend.

    ``kernel`` selects the leaf multiply (see :mod:`repro.blas.kernels`).
    ``fused_adds`` counts :meth:`add3` passes (best-effort under concurrent
    task-graph use: the increment is not atomic, so a parallel run may
    undercount; sequential schedules are exact).

    ``trace`` is an optional :class:`repro.observe.Tracer`: when set and
    enabled, every addition pass emits an ``"add"`` event and every leaf
    product a ``"leaf"`` event.  The disabled cost is one predicate check
    per operation — neither timestamps nor events are produced.
    ``validate=True`` (debug mode) wraps both leaf kernels with the
    NaN/Inf guard of :func:`repro.blas.kernels.guarded_kernel`; the
    arithmetic is untouched either way.
    """

    def __init__(
        self,
        kernel: "str | LeafKernel" = "numpy",
        trace=None,
        validate: bool = False,
    ) -> None:
        self.kernel = get_kernel(kernel)
        self.batch_kernel = get_batch_kernel(kernel)
        if validate:
            self.kernel = guarded_kernel(self.kernel)
            self.batch_kernel = guarded_kernel(self.batch_kernel)
        self.trace = trace
        self.fused_adds = 0

    def _emit(self, label: str, dst: MortonMatrix) -> None:
        """Trace one addition pass (callers pre-check ``trace.enabled``)."""
        self.trace.emit("add", label=label, elems=int(dst.size))

    def add(self, dst: MortonMatrix, x: MortonMatrix, y: MortonMatrix) -> None:
        """``dst = x + y`` as one flat vector operation."""
        _same_size(dst, x, y)
        np.add(x.buf, y.buf, out=dst.buf)
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit("add", dst)

    def sub(self, dst: MortonMatrix, x: MortonMatrix, y: MortonMatrix) -> None:
        """``dst = x - y`` as one flat vector operation."""
        _same_size(dst, x, y)
        np.subtract(x.buf, y.buf, out=dst.buf)
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit("sub", dst)

    def iadd(self, dst: MortonMatrix, x: MortonMatrix) -> None:
        """``dst += x`` in place."""
        _same_size(dst, x)
        np.add(dst.buf, x.buf, out=dst.buf)
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit("iadd", dst)

    def add3(
        self, dst: MortonMatrix, x: MortonMatrix, y: MortonMatrix, z: MortonMatrix
    ) -> None:
        """``dst = (x + y) + z`` streaming each operand once.

        Evaluated chunk-wise with a cache-resident intermediate, so ``dst``
        is written in a single pass instead of the 2-3 read-modify-write
        passes the unfused U-chain performs.  The association is fixed
        left-to-right — element-for-element the same operations as
        ``add(dst, x, y); iadd(dst, z)`` — so fusion never perturbs bits.
        ``dst`` may alias any operand: each chunk is staged before the
        destination slice is written.
        """
        _same_size(dst, x, y, z)
        d, xb, yb, zb = dst.buf, x.buf, y.buf, z.buf
        if d.ndim == 2:
            # Batched form (or a strided 2-D view): chunk along the last
            # axis so every pass covers all rows — chunk boundaries never
            # change the elementwise arithmetic, only its staging
            # granularity.
            bsz, elems = d.shape
            step = max(1, FUSE_CHUNK_ELEMS // bsz)
            tmp = _fuse_chunk(d.dtype, bsz * step)
            for i in range(0, elems, step):
                j = min(i + step, elems)
                t = _stage(tmp, bsz, j - i, d)
                np.add(xb[:, i:j], yb[:, i:j], out=t)
                np.add(t, zb[:, i:j], out=d[:, i:j])
            self.fused_adds += 1
            return
        tmp = _fuse_chunk(d.dtype)
        for i in range(0, d.size, FUSE_CHUNK_ELEMS):
            j = min(i + FUSE_CHUNK_ELEMS, d.size)
            t = tmp[: j - i]
            np.add(xb[i:j], yb[i:j], out=t)
            np.add(t, zb[i:j], out=d[i:j])
        self.fused_adds += 1

    def sub_into(self, dst: MortonMatrix, x: MortonMatrix) -> None:
        """``dst = x - dst`` as one in-place reversed vector subtraction."""
        _same_size(dst, x)
        np.subtract(x.buf, dst.buf, out=dst.buf)

    # ------------------------------------------------ alpha/beta folding

    def add_scale(
        self, dst: MortonMatrix, x: MortonMatrix, y: MortonMatrix, alpha: float
    ) -> None:
        """``dst = alpha * (x + y)`` in one streamed pass.

        The final U-adds of a recursion call this (instead of ``add``)
        when the plan's spec carries ``alpha != 1`` — the scale rides the
        pass that writes C's quadrant anyway, so alpha costs no extra
        full-matrix traffic.  Elementwise this is ``(x + y) * alpha``,
        bit-identical to computing the plain product and scaling after.
        """
        _same_size(dst, x, y)
        d, xb, yb = dst.buf, x.buf, y.buf
        np.add(xb, yb, out=d)
        np.multiply(d, alpha, out=d)
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit("add_scale", dst)

    def iadd_scale(self, dst: MortonMatrix, x: MortonMatrix, alpha: float) -> None:
        """``dst = alpha * (dst + x)`` in place (a scaled final U-add)."""
        _same_size(dst, x)
        d = dst.buf
        np.add(d, x.buf, out=d)
        np.multiply(d, alpha, out=d)
        tr = self.trace
        if tr is not None and tr.enabled:
            self._emit("iadd_scale", dst)

    def add3_scale(
        self,
        dst: MortonMatrix,
        x: MortonMatrix,
        y: MortonMatrix,
        z: MortonMatrix,
        alpha: float,
    ) -> None:
        """``dst = alpha * ((x + y) + z)``, fused and chunked like ``add3``.

        Same staging discipline as :meth:`add3` (dst may alias any
        operand; chunk boundaries never perturb bits), with the scale
        applied to each staged chunk before it lands in ``dst``.  Not
        counted in ``fused_adds`` — that counter pins the *schedule's*
        fusion structure, which is identical whatever alpha is.
        """
        _same_size(dst, x, y, z)
        d, xb, yb, zb = dst.buf, x.buf, y.buf, z.buf
        if d.ndim == 2:
            bsz, elems = d.shape
            step = max(1, FUSE_CHUNK_ELEMS // bsz)
            tmp = _fuse_chunk(d.dtype, bsz * step)
            for i in range(0, elems, step):
                j = min(i + step, elems)
                t = _stage(tmp, bsz, j - i, d)
                np.add(xb[:, i:j], yb[:, i:j], out=t)
                np.add(t, zb[:, i:j], out=t)
                np.multiply(t, alpha, out=d[:, i:j])
            return
        tmp = _fuse_chunk(d.dtype)
        for i in range(0, d.size, FUSE_CHUNK_ELEMS):
            j = min(i + FUSE_CHUNK_ELEMS, d.size)
            t = tmp[: j - i]
            np.add(xb[i:j], yb[i:j], out=t)
            np.add(t, zb[i:j], out=t)
            np.multiply(t, alpha, out=d[i:j])

    def accumulate(self, dst: MortonMatrix, x: MortonMatrix, beta: float) -> None:
        """``dst = x + beta * dst``: fold a freshly computed product ``x``
        into a live C (the BLAS beta contract) in Morton space.

        Elementwise identical to the reference ``c *= beta; c += d``
        (multiply first, then add), so results stay bit-compatible with
        the epilogue it replaces.
        """
        _same_size(dst, x)
        d = dst.buf
        np.multiply(d, beta, out=d)
        np.add(d, x.buf, out=d)
        tr = self.trace
        if tr is not None and tr.enabled:
            tr.emit("accumulate", label="morton", elems=int(dst.size))

    # ----------------------------------------------------- leaf products

    def leaf_mult(
        self,
        a: MortonMatrix,
        b: MortonMatrix,
        dst: MortonMatrix,
        alpha: float = 1.0,
    ) -> None:
        """Multiply two leaf tiles (or stacked batches) with the kernel.

        Batched operands (anything exposing a ``batch`` axis) route to the
        batched kernel so an entire ``(B, T, T)`` leaf site is one call.
        ``alpha`` scales the freshly written tile in place — only a
        depth-0 recursion (the whole product is one leaf) pays this,
        deeper plans fold alpha into the final U-adds instead.
        """
        tr = self.trace
        if tr is None or not tr.enabled:
            self._leaf_mult(a, b, dst, alpha)
            return
        t0 = perf_counter()
        self._leaf_mult(a, b, dst, alpha)
        seconds = perf_counter() - t0
        batch = getattr(a, "batch", None)
        tr.emit(
            "leaf", label="tile" if batch is None else "stack",
            m=int(a.tile_r), k=int(a.tile_c), n=int(b.tile_c),
            items=int(batch or 1), seconds=seconds,
        )

    def _leaf_mult(self, a, b, dst, alpha: float) -> None:
        if getattr(a, "batch", None) is not None:
            self.batch_kernel(
                a.leaf_view(), b.leaf_view(), dst.leaf_view(), accumulate=False
            )
            if alpha != 1.0:
                np.multiply(dst.buf, alpha, out=dst.buf)
            return
        self.kernel(a.leaf_view(), b.leaf_view(), dst.leaf_view(), accumulate=False)
        if alpha != 1.0:
            np.multiply(dst.buf, alpha, out=dst.buf)
