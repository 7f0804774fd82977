"""Compiled GEMM plans: frozen geometry decisions plus pooled buffers.

A :class:`CompiledPlan` captures everything :func:`repro.modgemm` used to
recompute per call for a fixed problem geometry:

* the ``(Tiling, Tiling, Tiling)`` from :meth:`TruncationPolicy.plan`
  (or, for highly rectangular problems, the Figure-4 panel decomposition
  and one sub-plan per panel geometry);
* the Morton-order operand and product buffers, allocated once with their
  pads zeroed once — repeated conversions then touch only logical
  elements (``dense_to_morton(..., zero_pad=False)``);
* the per-level :class:`Workspace` (sequential schedule) or the
  :class:`TaskScratch` plus prebuilt task graph (``tasks`` schedule, see
  :mod:`repro.core.scheduler`) shared across executions;
* the geometry's cached :class:`ConversionTable` per operand — the
  strided box copies that convert it to and from Morton order;
* the resolved leaf kernel and recursion variant.

``plan.execute(a, b, ...)`` then runs the full BLAS contract against the
frozen geometry, allocating only the dense output.  Plans serialise their
own executions with an internal lock, so one plan shared by many threads
(e.g. via :meth:`GemmSession.multiply_many`) never corrupts its pooled
buffers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..blas.dgemm import GemmProblem, OpKind
from ..blas.kernels import LeafKernel, blas_rows
from ..core.modgemm import PhaseTimings
from ..core.ops import NumpyOps
from ..core.parallel import TaskScratch, build_winograd_graph, run_batch_stripes
from ..core.rectangular import plan_panels
from ..core.scheduler import Schedule, TaskGraph
from ..core.strassen import strassen_multiply
from ..core.truncation import TruncationPolicy
from ..core.winograd import (
    CONVERT_QUADS_A,
    CONVERT_QUADS_B,
    FUSED_PACKS_A,
    FUSED_PACKS_B,
    resolve_memory,
    winograd_multiply,
)
from ..core.workspace import BatchWorkspace, Workspace
from ..errors import BatchItemError, InvariantError, KernelError, PlanError, ShapeError
from ..layout.convert import (
    BAND_BYTES,
    conversion_table,
    dense_to_morton,
    dense_to_morton_batch,
    dense_to_morton_quadrants,
    morton_to_dense,
    morton_to_dense_batch,
    pack_morton_quarter,
    pack_morton_quarter_batch,
)
from ..layout.matrix import BatchMortonMatrix, MortonMatrix
from ..layout.padding import Tiling
from ..layout.relabel import transposed_view
from ..layout.strided import (
    BLAS_SMALL_MNK, PAPER_TILE_MAX, StridedMatrix, memory_order,
)
from ..observe.validate import check_pad_zero, check_quiescent
from .spec import GemmSpec

__all__ = [
    "PlanKey", "CompiledPlan", "BatchPlan", "batch_size_class",
    "resolve_variant", "VARIANTS", "BATCH_CAP_MAX",
]

#: Largest stacked-batch capacity class; bigger batches execute in chunks
#: of this size, so one cached :class:`BatchPlan` serves any batch length
#: while its pooled stacks stay bounded (3 operand stacks + workspace).
BATCH_CAP_MAX = 32


def batch_size_class(n_items: int) -> int:
    """The pooled-buffer capacity class serving a batch of ``n_items``.

    The next power of two, capped at :data:`BATCH_CAP_MAX` — so a session
    caches at most ``log2(BATCH_CAP_MAX)+1`` stack sizes per geometry
    instead of one per distinct batch length.
    """
    if n_items < 1:
        raise ValueError(f"batch must have >= 1 item, got {n_items}")
    return min(1 << (n_items - 1).bit_length(), BATCH_CAP_MAX)

#: Canonical recursion-variant names and their multiply entry points.
VARIANTS = {"winograd": winograd_multiply, "strassen": strassen_multiply}

def resolve_variant(variant) -> str:
    """Normalise a recursion-variant argument to its canonical name.

    Accepts the canonical strings (``"winograd"``, ``"strassen"``,
    case-insensitive) or the multiply functions themselves
    (:func:`winograd_multiply` / :func:`strassen_multiply`), mirroring the
    string-or-object convention of ``kernel`` and ``op_a``/``op_b``.
    """
    if isinstance(variant, str):
        name = variant.lower()
        if name in VARIANTS:
            return name
    else:
        for name, fn in VARIANTS.items():
            if variant is fn:
                return name
    raise KernelError(
        f"unknown variant {variant!r}; expected {sorted(VARIANTS)}"
    )


@dataclass(frozen=True)
class PlanKey:
    """The memoisation key of one compiled plan.

    Two multiplies share a plan exactly when every field matches: the
    logical GEMM dimensions, the truncation policy, the resolved leaf
    kernel (by identity — named kernels resolve to module-level
    functions, so equal names compare equal), the recursion variant, the
    execution :class:`Schedule`, the memory schedule (see
    :data:`repro.core.winograd.MEMORY_SCHEDULES`) and the full operation
    :class:`~repro.engine.spec.GemmSpec`.  The spec is load-bearing:
    ``alpha`` is baked into a plan's final U-adds (and its prebuilt task
    graph), ``beta`` into its output-conversion epilogue, and the
    transpose flags decide each operand buffer's *orientation* — so two
    calls differing in any of them genuinely need different compiled
    artefacts.
    """

    m: int
    k: int
    n: int
    policy: TruncationPolicy
    kernel: LeafKernel
    variant: str
    schedule: Schedule
    memory: str = "classic"
    spec: GemmSpec = GemmSpec()

    @property
    def parallel(self) -> bool:
        """True when the plan executes on the task scheduler."""
        return self.schedule.parallel

    # Accessors mirroring the pre-spec field layout, so call sites (and
    # the BLAS boundary) keep reading key.op_a / key.dtype / ...

    @property
    def op_a(self) -> OpKind:
        return OpKind.TRANS if self.spec.trans_a else OpKind.NOTRANS

    @property
    def op_b(self) -> OpKind:
        return OpKind.TRANS if self.spec.trans_b else OpKind.NOTRANS

    @property
    def trans_a(self) -> bool:
        return self.spec.trans_a

    @property
    def trans_b(self) -> bool:
        return self.spec.trans_b

    @property
    def alpha(self) -> float:
        return self.spec.alpha

    @property
    def beta(self) -> float:
        return self.spec.beta

    @property
    def dtype(self) -> str:
        return self.spec.dtype

    @property
    def np_dtype(self) -> np.dtype:
        """The computation dtype as a numpy dtype object."""
        return self.spec.np_dtype


def _staging(key) -> np.ndarray:
    """A column-major ``(m, n)`` staging product for :func:`_fold`.

    When a column would span a multiple of 4 KiB, the leading dimension
    grows by a cache line, so a fold into a row-major C does not read
    every element of a row from one L1 set (at 1024² float64 the fold
    took 12 ms with the plain layout and 3-4 ms with the padded one).
    """
    dt = key.np_dtype
    ld = key.m + (64 // dt.itemsize if key.m * dt.itemsize % 4096 == 0 else 0)
    return np.empty((ld, key.n), dt, order="F")[: key.m]


def _fold(c: np.ndarray, d: np.ndarray, beta: float) -> None:
    """``c = beta * c + d`` (``c = d`` when ``beta`` is 0), band by band.

    Bands run along ``c``'s slow axis and cover about ``BAND_BYTES`` of
    it, as in the Morton path's β epilogue, so each band of ``c`` is
    scaled and then added to while it is still in cache.  Per element
    these are the two operations of ``c *= beta; c += d``.
    """
    if memory_order(c) == "F":
        c, d = c.T, d.T
    step = max(1, BAND_BYTES // (c.shape[1] * c.itemsize))
    for i in range(0, c.shape[0], step):
        cb, db = c[i : i + step], d[i : i + step]
        if beta == 0.0:
            np.copyto(cb, db)
        else:
            np.multiply(cb, beta, out=cb)
            np.add(cb, db, out=cb)


class _ExecExtras:
    """Per-execution scheduler/conversion counters, folded into the session."""

    __slots__ = (
        "tasks_run", "worker_busy", "graph_wall", "pool_workers",
        "fused_adds", "fused_packs",
    )

    def __init__(self) -> None:
        self.tasks_run = 0
        self.worker_busy = 0.0
        self.graph_wall = 0.0
        self.pool_workers = 0
        self.fused_adds = 0
        self.fused_packs = 0


class CompiledPlan:
    """A ready-to-execute GEMM for one frozen problem geometry.

    Created by :meth:`GemmSession.plan`; execute with
    :meth:`execute` (full dgemm semantics) as many times as desired.
    """

    def __init__(self, key: PlanKey, session) -> None:
        self.key = key
        self.session = session
        self._lock = threading.Lock()
        self._cache_hit = False  # updated by the session on each lookup
        self._debug = bool(getattr(session, "debug", False))
        self._poisoned = False  # scratch poison-filled since the last run
        self._ops = NumpyOps(
            key.kernel,
            trace=getattr(session, "trace", None),
            validate=self._debug,
        )
        #: np.float64 buffers allocated while compiling (operands, product,
        #: workspace levels, task scratch) — constant afterwards.
        self.buffers_allocated = 0
        self.tilings: tuple[Tiling, Tiling, Tiling] | None = key.policy.plan(
            key.m, key.k, key.n
        )
        self._a_mm = self._b_mm = self._c_mm = None
        self._a_eff = self._b_eff = None
        self._relabel_a = self._relabel_b = False
        self._workspace: Workspace | None = None
        self._tscratch: TaskScratch | None = None
        self._graph: TaskGraph | None = None
        self._rezero_operands = False
        self._tables: dict = {}
        self._fused = False
        self._fdsts: dict[str, np.ndarray] = {}
        self._pend = None
        self._panels = None
        self._panel_plans = None
        # Strided plans: scratch per (op(A), op(B)) memory order, and a
        # column-major staging product for outputs the recursion cannot
        # write directly (both pooled on first use, so a plan holds only
        # the layouts its callers pass).
        self._strided = self._runs_strided()
        self._strided_ws: dict[tuple[str, str], Workspace] = {}
        self._stage: StridedMatrix | None = None
        if self.tilings is None:
            self._compile_panels()
        elif not self._strided:
            self._compile_well_behaved()

    def _runs_strided(self) -> bool:
        """Whether this plan runs on strided views of the caller's arrays.

        The rule is geometric, so a tuned plan replaying a default tiling
        through ``pinned_tiling`` runs the same way: every dimension
        unpadded, at most one level (deeper strided recursions measured
        slower than Morton, ``benchmarks/strided_sweep.py``), every leaf
        tile above the paper's 16..64 range, a leaf product above the
        BLAS's small-matrix regime, and a sequential Winograd recursion
        that never writes its operands and packs nothing during
        conversion.  Everything else keeps Morton.
        """
        key = self.key
        tl = self.tilings
        return (
            tl is not None
            and tl[0].depth <= 1
            and all(t.padded == t.n and t.tile > PAPER_TILE_MAX for t in tl)
            and tl[0].tile * tl[1].tile * tl[2].tile > BLAS_SMALL_MNK
            and key.variant == "winograd"
            and not key.schedule.parallel
            and resolve_memory(key.memory) in ("classic", "two_temp")
            and not getattr(self.session, "fused_pack", False)
        )

    def _strided_workspace(self, order_a: str, order_b: str) -> Workspace:
        """The pooled scratch for operands of these memory orders."""
        ws = self._strided_ws.get((order_a, order_b))
        if ws is None:
            tm, tk, tn = self.tilings
            memory = resolve_memory(self.key.memory)
            ws = Workspace(
                tm.depth, tm.tile, tk.tile, tn.tile,
                with_q=memory == "classic", schedule=memory,
                dtype=self.key.np_dtype, orders=(order_a, order_b),
            )
            self._strided_ws[(order_a, order_b)] = ws
            buffers = (2 if memory == "two_temp" else 4) * tm.depth
            self.buffers_allocated += buffers
            session = self.session
            with session._lock:  # scratch allocated after compile time
                session._buffers_allocated += buffers
                session._track_scratch_alloc(ws.nbytes)
        self._workspace = ws
        return ws

    # ------------------------------------------------------------- compile

    def _compile_well_behaved(self) -> None:
        tm, tk, tn = self.tilings
        key = self.key
        memory = resolve_memory(key.memory)
        if memory == "ip_overwrite" and tm.depth > 0 and not (
            tm.tile == tk.tile == tn.tile
        ):
            raise PlanError(
                "memory='ip_overwrite' needs uniform tile geometry; the "
                f"policy chose tiles {tm.tile}/{tk.tile}/{tn.tile} for "
                f"{key.m}x{key.k}x{key.n}"
            )
        # Operand pads are zeroed here, once; every later conversion uses
        # zero_pad=False and writes only the logical region.
        #
        # A transposed operand of a Winograd plan is served by quadrant
        # *relabeling*: its Morton buffer keeps the operand's native
        # orientation (so the dense->Morton conversion is the same
        # straight copy a non-transposed run pays — zero extra passes)
        # and the recursion sees it through a TransposedView.  Strassen
        # and ip_overwrite plans are not relabel-threaded; they keep the
        # legacy transpose-fused conversion.
        dt = key.np_dtype
        relabel_ok = key.variant == "winograd" and memory != "ip_overwrite"
        self._relabel_a = bool(key.trans_a and relabel_ok)
        self._relabel_b = bool(key.trans_b and relabel_ok)
        if self._relabel_a:
            self._a_mm = MortonMatrix.zeros(key.k, key.m, tk, tm, dtype=dt)
            self._a_eff = transposed_view(self._a_mm)
        else:
            self._a_mm = MortonMatrix.zeros(key.m, key.k, tm, tk, dtype=dt)
            self._a_eff = self._a_mm
        if self._relabel_b:
            self._b_mm = MortonMatrix.zeros(key.n, key.k, tn, tk, dtype=dt)
            self._b_eff = transposed_view(self._b_mm)
        else:
            self._b_mm = MortonMatrix.zeros(key.k, key.n, tk, tn, dtype=dt)
            self._b_eff = self._b_mm
        self._c_mm = MortonMatrix.empty(key.m, key.n, tm, tn, dtype=dt)
        self.buffers_allocated += 3
        # ip_overwrite leaves garbage in the operand pads after every
        # execution; such plans must re-zero A/B before each conversion.
        self._rezero_operands = memory == "ip_overwrite" and (
            self._a_mm.size > key.m * key.k or self._b_mm.size > key.k * key.n
        )
        depth = tm.depth
        sched = key.schedule
        # One cached conversion geometry per operand: the strided box
        # copies every conversion of this plan runs through.
        self._tables = {
            name: conversion_table(
                mm.rows, mm.cols, mm.tile_r, mm.tile_c, mm.depth
            )
            for name, mm in (("a", self._a_mm), ("b", self._b_mm),
                             ("c", self._c_mm))
        }
        # Fused convert-and-add packing (opt-in, ``fused_pack=True``): the
        # top level's S1/S3/T1/T3 sums are produced *during* the
        # dense->Morton copy (one read of each source quadrant yields both
        # the converted quadrant and the packed sum), so the recursion
        # skips its four standalone top-level add passes and one quadrant
        # copy per operand.  Requires the plain Morton permutation (no
        # relabeled transposes — dense-side transposes fold into the
        # copy as usual).
        self._fused = (
            bool(getattr(self.session, "fused_pack", False))
            and key.variant == "winograd"
            and depth >= 1
            and not self._relabel_a
            and not self._relabel_b
        )
        self._fdsts: dict[str, np.ndarray] = {}
        self._pend = None  # (a, trans_a, b, trans_b) of the running execute
        if sched.parallel and depth >= 1:
            self._tscratch = TaskScratch(
                tm.tile, tk.tile, tn.tile, depth,
                parallel_depth=sched.depth,
                workers=sched.workers or self.session._pool_size(),
                memory=memory,
                dtype=dt,
            )
            self.buffers_allocated += self._tscratch.buffer_count
            self._graph = build_winograd_graph(
                self._a_eff, self._b_eff, self._c_mm, self._tscratch,
                ops=self._ops, alpha=key.alpha,
                pack_a=self._graph_pack_a if self._fused else None,
                pack_b=self._graph_pack_b if self._fused else None,
            )
        elif memory == "two_temp":
            self._workspace = Workspace(
                depth, tm.tile, tk.tile, tn.tile, schedule="two_temp", dtype=dt
            )
            self.buffers_allocated += 2 * depth
        elif memory == "classic":
            self._workspace = Workspace(
                depth, tm.tile, tk.tile, tn.tile, with_q=True, dtype=dt
            )
            self.buffers_allocated += 4 * depth
        # ip_overwrite: no workspace at all.
        if self._fused:
            self._fdsts = self._pack_destinations(memory)

    def _pack_destinations(self, memory: str) -> dict[str, np.ndarray]:
        """Flat quarter buffers receiving the four top-level packed sums.

        ``S1``/``T1`` land in the A21/B12 quadrant slots of the pooled
        operand buffers — those quadrants are never consumed as plain
        Morton operands at the top level, so the slots are free.
        ``S3``/``T3`` go where the selected schedule's top recursion
        level reads them: the outermost workspace level's S/T scratch
        (classic/two_temp), the C11/C12 quadrant slots (ip_overwrite —
        the product P5 is computed from them before either is
        overwritten), or the task graph's root ``s[2]``/``t[2]`` buffers.
        """
        qa = self._a_mm.size // 4
        qb = self._b_mm.size // 4
        dsts = {
            "S1": self._a_mm.buf[2 * qa : 3 * qa],
            "T1": self._b_mm.buf[1 * qb : 2 * qb],
        }
        if self._tscratch is not None:
            dsts["S3"] = self._tscratch.root.s[2].buf
            dsts["T3"] = self._tscratch.root.t[2].buf
        elif memory == "ip_overwrite":
            qc = self._c_mm.size // 4
            dsts["S3"] = self._c_mm.buf[0:qc]
            dsts["T3"] = self._c_mm.buf[qc : 2 * qc]
        else:
            lv = self._workspace.at(self.tilings[0].depth - 1)
            dsts["S3"] = lv.s.buf
            dsts["T3"] = lv.t.buf
        return dsts

    def _fused_convert_side(
        self, name: str, dense, mm, quads, packs, transpose: bool,
        extras: "_ExecExtras | None",
    ) -> None:
        """Convert one operand's consumed quadrants, then pack its sums."""
        table = self._tables[name]
        tr = self._ops.trace
        t0 = time.perf_counter()
        dense_to_morton_quadrants(
            dense, mm, quads, transpose=transpose, zero_pad=False,
            table=table,
        )
        if tr is not None and tr.enabled:
            tr.emit(
                "convert", label=name, seconds=time.perf_counter() - t0,
                fused=True,
            )
        for label, op, q0, q1 in packs:
            t0 = time.perf_counter()
            pack_morton_quarter(
                self._fdsts[label], dense, op, q0, q1, table,
                transpose=transpose,
            )
            if tr is not None and tr.enabled:
                tr.emit(
                    "pack", label=label, seconds=time.perf_counter() - t0
                )
        if extras is not None:
            extras.fused_packs += len(packs)

    # The graph's two root tasks (run on pool workers; the per-execute
    # dense operands are stashed in self._pend under the plan lock, which
    # is held for the whole execution).  Extras are folded in by the
    # caller after the graph completes — two concurrent pack tasks must
    # not race on one counter object.

    def _graph_pack_a(self) -> None:
        a, trans_a, _, _ = self._pend
        self._fused_convert_side(
            "a", a, self._a_mm, CONVERT_QUADS_A, FUSED_PACKS_A, trans_a,
            None,
        )

    def _graph_pack_b(self) -> None:
        _, _, b, trans_b = self._pend
        self._fused_convert_side(
            "b", b, self._b_mm, CONVERT_QUADS_B, FUSED_PACKS_B, trans_b,
            None,
        )

    def _compile_panels(self) -> None:
        key = self.key
        policy = key.policy
        self._panels = plan_panels(key.m, key.k, key.n, policy.tile_range) \
            if policy.tile_range else plan_panels(key.m, key.k, key.n)
        # One sub-plan per panel geometry, shared through the session's
        # cache (panels of equal size — the common case — compile once).
        self._panel_plans = []
        for panel in self._panels:
            dims = (panel.m1 - panel.m0, panel.k1 - panel.k0, panel.n1 - panel.n0)
            if policy.plan(*dims) is None:
                # Degenerate residue (e.g. a 1-wide strip): conventional
                # product, nothing to pool.
                self._panel_plans.append(None)
            else:
                self._panel_plans.append(
                    self.session.plan(
                        *dims,
                        op_a=OpKind.NOTRANS,
                        op_b=OpKind.NOTRANS,
                        policy=policy,
                        kernel=key.kernel,
                        variant=key.variant,
                        schedule=key.schedule,
                        memory=key.memory,
                        dtype=key.dtype,
                    )
                )

    # ------------------------------------------------------------- execute

    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        alpha: float | None = None,
        beta: float | None = None,
        timings: PhaseTimings | None = None,
    ) -> np.ndarray:
        """``C <- alpha * op(A) . op(B) + beta * C`` with this plan's spec.

        The transposition ops, scaling factors and dtype are the plan's
        (``alpha``/``beta`` default to the spec's values; passing
        different ones raises :class:`PlanError` — compile a plan for the
        new spec instead, the scales are baked into this one's U-adds and
        epilogue).  Operand shapes must produce exactly the planned
        ``(m, k, n)`` (:class:`ShapeError` otherwise).
        """
        key = self.key
        if alpha is not None and float(alpha) != key.alpha:
            raise PlanError(
                f"alpha={alpha} does not match this plan's spec "
                f"(alpha={key.alpha}); plan the new spec instead"
            )
        if beta is not None and float(beta) != key.beta:
            raise PlanError(
                f"beta={beta} does not match this plan's spec "
                f"(beta={key.beta}); plan the new spec instead"
            )
        p = GemmProblem.create(
            a, b, op_a=key.op_a, op_b=key.op_b,
            alpha=key.alpha, beta=key.beta, c=c, dtype=key.dtype,
        )
        return self.execute_problem(p, c=c, timings=timings)

    def execute_problem(
        self,
        p: GemmProblem,
        c: np.ndarray | None = None,
        timings: PhaseTimings | None = None,
    ) -> np.ndarray:
        """Run a pre-validated :class:`GemmProblem` through the plan."""
        key = self.key
        if (p.m, p.k, p.n) != (key.m, key.k, key.n):
            raise ShapeError(
                f"operands give GEMM dims {(p.m, p.k, p.n)}, but this plan "
                f"is compiled for {(key.m, key.k, key.n)}"
            )
        if (p.op_a, p.op_b) != (key.op_a, key.op_b):
            raise PlanError(
                f"ops {(p.op_a.value, p.op_b.value)} do not match the plan's "
                f"{(key.op_a.value, key.op_b.value)}"
            )
        if (p.alpha, p.beta) != (key.alpha, key.beta):
            raise PlanError(
                f"alpha/beta {(p.alpha, p.beta)} do not match the plan "
                f"spec's {(key.alpha, key.beta)}; plan the new spec instead"
            )
        rec = PhaseTimings()
        extras = _ExecExtras()
        if self.tilings is not None:
            # alpha is folded into the recursion's final U-adds and beta
            # into the output conversion — no separate scaling pass.  A
            # caller C of the computation dtype receives the conversion
            # directly; beta != 0 guarantees that (GemmProblem.create
            # rejects a mismatched-dtype C when beta != 0).
            c_out = c if c is not None and c.dtype == key.np_dtype else None
            d = self._well_behaved_product(
                p.a, p.b,
                transpose_a=(p.op_a is OpKind.TRANS),
                transpose_b=(p.op_b is OpKind.TRANS),
                rec=rec,
                extras=extras,
                c_out=c_out,
            )
            if timings is not None:
                timings.to_morton += rec.to_morton
                timings.compute += rec.compute
                timings.from_morton += rec.from_morton
            self.session._record_execution(self, rec, extras)
            if c is not None and d is not c:
                c[...] = d
                return c
            return d
        d = self._panelled_product(p, rec, extras)
        rec.panels = len(self._panels)
        if timings is not None:
            timings.to_morton += rec.to_morton
            timings.compute += rec.compute
            timings.from_morton += rec.from_morton
            timings.panels = rec.panels
        self.session._record_execution(self, rec, extras)
        # Panelled plans accumulate sub-products into one dense D and keep
        # the legacy post-scaling (per-panel alpha folding would change
        # the bit pattern of the accumulation).
        result = p.apply_scaling(d, c)
        if c is not None and result is not c:
            c[...] = result
            return c
        return result

    def _emit_convert(self, name: str, t0: float) -> None:
        """Trace one conversion that started at ``t0``."""
        tr = self._ops.trace
        if tr is not None and tr.enabled:
            tr.emit("convert", label=name, seconds=time.perf_counter() - t0)

    def _well_behaved_product(
        self, a, b, transpose_a: bool, transpose_b: bool, rec: PhaseTimings,
        extras: "_ExecExtras | None" = None,
        c_out: np.ndarray | None = None,
    ) -> np.ndarray:
        """One conversion-recursion-conversion pass through the pooled buffers.

        ``c_out`` is the caller's computation-dtype output array, when it
        has one: the final conversion writes into it directly, fusing the
        spec's ``beta`` accumulate into the same sweep.  Without it the
        product lands in a fresh dense array (spec ``beta`` must be 0 —
        :meth:`execute_problem` guarantees a ``c_out`` otherwise).
        Panelled parents call this on their sub-plans with everything
        defaulted (plain product, spec-free).
        """
        if self._strided:
            return self._strided_product(
                a.T if transpose_a else a, b.T if transpose_b else b,
                rec, extras, c_out,
            )
        key = self.key
        tr = self._ops.trace
        with self._lock:
            if self._debug:
                self._debug_pre()
            fused0 = self._ops.fused_adds
            pool = None
            if self._graph is not None:
                pool = self.session._ensure_pool()
            if self._rezero_operands:
                # A previous ip_overwrite execution left garbage in the
                # operand pads; the zero_pad=False conversion below only
                # rewrites logical elements.
                self._a_mm.buf.fill(0.0)
                self._b_mm.buf.fill(0.0)
            # A relabel-served transpose converts the operand in its
            # native orientation (a straight copy); the recursion reads
            # the buffer through the compile-time TransposedView.
            conv_trans_a = transpose_a and not self._relabel_a
            conv_trans_b = transpose_b and not self._relabel_b
            if tr is not None and tr.enabled:
                if self._relabel_a:
                    tr.emit("relabel", label="a")
                if self._relabel_b:
                    tr.emit("relabel", label="b")
            t0 = time.perf_counter()
            if self._fused and self._graph is not None:
                # Conversion moves *into* the graph: the two root pack
                # tasks convert and pack their operand on pool workers,
                # overlapping the a/b sides (to_morton attributes ~0
                # here; the work lands in the graph's compute phase).
                self._pend = (a, conv_trans_a, b, conv_trans_b)
            elif self._fused:
                self._fused_convert_side(
                    "a", a, self._a_mm, CONVERT_QUADS_A, FUSED_PACKS_A,
                    conv_trans_a, extras,
                )
                self._fused_convert_side(
                    "b", b, self._b_mm, CONVERT_QUADS_B, FUSED_PACKS_B,
                    conv_trans_b, extras,
                )
            else:
                for name, src, mm, trans in (
                    ("a", a, self._a_mm, conv_trans_a),
                    ("b", b, self._b_mm, conv_trans_b),
                ):
                    tc = time.perf_counter()
                    dense_to_morton(src, mm, transpose=trans, zero_pad=False,
                                    table=self._tables[name])
                    self._emit_convert(name, tc)
            t1 = time.perf_counter()
            if self._debug and not self._fused:
                # Phase boundary: operands are converted, compute has not
                # started.  Both pads must be exactly zero here (the
                # ip_overwrite re-zero above included).  Fused plans skip
                # the check: their A21/B12 slots legitimately hold packed
                # sums whose support extends into the slot's pad region
                # (exactly the values the two-pass scratch sums held).
                check_pad_zero(self._a_mm, "a")
                check_pad_zero(self._b_mm, "b")
            if self._graph is not None:
                try:
                    run = pool.run(self._graph)
                finally:
                    self._pend = None
                if extras is not None:
                    extras.tasks_run += run.tasks
                    extras.worker_busy += run.busy
                    extras.graph_wall += run.wall
                    extras.pool_workers = run.workers
                    if self._fused:
                        extras.fused_packs += 4
            elif key.variant == "winograd":
                winograd_multiply(
                    self._a_eff, self._b_eff, self._c_mm,
                    ops=self._ops, workspace=self._workspace,
                    memory=key.memory, alpha=key.alpha,
                    prepacked=self._fused,
                )
            else:
                strassen_multiply(
                    self._a_mm, self._b_mm, self._c_mm,
                    ops=self._ops, workspace=self._workspace,
                    alpha=key.alpha,
                )
            t2 = time.perf_counter()
            beta = key.beta if c_out is not None else 0.0
            d = morton_to_dense(self._c_mm, out=c_out, beta=beta,
                                table=self._tables["c"])
            self._emit_convert("c", t2)
            if beta != 0.0 and tr is not None and tr.enabled:
                tr.emit("accumulate", label="c", beta=float(beta))
            t3 = time.perf_counter()
            if extras is not None:
                extras.fused_adds += self._ops.fused_adds - fused0
            if self._debug:
                self._debug_post()
        rec.to_morton += t1 - t0
        rec.compute += t2 - t1
        rec.from_morton += t3 - t2
        return d

    def _strided_product(
        self, opa: np.ndarray, opb: np.ndarray, rec: PhaseTimings,
        extras: "_ExecExtras | None", c_out: np.ndarray | None,
    ) -> np.ndarray:
        """The recursion on strided views of ``op(A)``, ``op(B)`` and C.

        The product lands in ``c_out`` directly when that is column-major
        and ``beta`` is 0; a fresh column-major array when there is no
        ``c_out``; otherwise in the pooled column-major staging buffer,
        folded into ``c_out`` band by band (:func:`_fold`).  Leaf
        destinations are therefore always column-major, which keeps the
        BLAS results bit-identical to the Morton path's.
        """
        key = self.key
        tr = self._ops.trace
        depth = self.tilings[0].depth
        beta = key.beta if c_out is not None else 0.0
        with self._lock:
            if self._debug:
                self._debug_pre()
            fused0 = self._ops.fused_adds
            t1 = time.perf_counter()
            ws = self._strided_workspace(memory_order(opa), memory_order(opb))
            if c_out is not None and beta == 0.0 and blas_rows(c_out.T):
                target = StridedMatrix(c_out, depth)
            elif c_out is None:
                target = StridedMatrix(
                    np.empty((key.m, key.n), key.np_dtype, order="F"), depth
                )
            else:
                if self._stage is None:
                    self._stage = StridedMatrix(_staging(key), depth)
                target = self._stage
            winograd_multiply(
                StridedMatrix(opa, depth), StridedMatrix(opb, depth), target,
                ops=self._ops, workspace=ws, memory=key.memory,
                alpha=key.alpha,
            )
            t2 = time.perf_counter()
            rec.compute += t2 - t1
            d = target.buf
            if target is self._stage:
                _fold(c_out, d, beta)
                d = c_out
                if beta != 0.0 and tr is not None and tr.enabled:
                    tr.emit("accumulate", label="c", beta=float(beta))
                rec.from_morton += time.perf_counter() - t2
            if extras is not None:
                extras.fused_adds += self._ops.fused_adds - fused0
            if self._debug:
                self._debug_post()
        return d

    # ----------------------------------------------------- debug invariants

    def _debug_pre(self) -> None:
        """Phase-boundary checks before buffer reuse (lock held).

        Verifies the pooled scratch is exactly as the previous execution's
        :meth:`_debug_post` left it — wholly poison-filled — and that every
        leaf workspace has been returned to its pool.  A violation means
        something wrote to this plan's buffers *between* executions, which
        the per-plan locking discipline must never allow.
        """
        if self._tscratch is not None and not (
            self._tscratch.workspace_pool.all_free
        ):
            raise InvariantError(
                "leaf workspace pool is not fully free between executions: "
                "a previous run leaked a workspace or a task is still "
                "holding one"
            )
        if self._poisoned:
            if self._workspace is not None:
                check_quiescent(self._workspace, "workspace")
            if self._tscratch is not None:
                check_quiescent(self._tscratch, "task-scratch")

    def _debug_post(self) -> None:
        """Poison-fill the scratch after an execution (lock held).

        Every scratch buffer is write-before-read within an execution, so
        the fill never changes results — it only arms the next
        :meth:`_debug_pre` quiescence check.
        """
        if self._workspace is not None:
            self._workspace.poison()
        if self._tscratch is not None:
            self._tscratch.poison()
        self._poisoned = True

    def _panelled_product(
        self, p: GemmProblem, rec: PhaseTimings,
        extras: "_ExecExtras | None" = None,
    ) -> np.ndarray:
        opa = p.op_a_view
        opb = p.op_b_view
        d = np.zeros((p.m, p.n), dtype=self.key.np_dtype, order="F")
        for panel, sub in zip(self._panels, self._panel_plans):
            pa = opa[panel.m0 : panel.m1, panel.k0 : panel.k1]
            pb = opb[panel.k0 : panel.k1, panel.n0 : panel.n1]
            if sub is None:
                part = pa @ pb
            else:
                part = sub._well_behaved_product(
                    pa, pb, transpose_a=False, transpose_b=False, rec=rec,
                    extras=extras,
                )
            if panel.accumulate:
                d[panel.m0 : panel.m1, panel.n0 : panel.n1] += part
            else:
                d[panel.m0 : panel.m1, panel.n0 : panel.n1] = part
        return d

    # ----------------------------------------------------------- accounting

    @property
    def scratch_bytes(self) -> int:
        """Recursion scratch bytes this plan holds (workspace/task scratch).

        Excludes the Morton operand/product buffers — this is exactly the
        *extra* memory the selected ``memory`` schedule is accountable
        for: the geometric series over recursion levels (classic
        ``|A|/4 + |B|/4 + 2|C|/4`` per level, two_temp
        ``max(|A|,|C|)/4 + |B|/4``, ip_overwrite zero), or the task-DAG
        expansion tree plus leaf workspace pool for parallel plans.
        Panelled plans report the sum over their distinct sub-plans.
        """
        if self.tilings is None:
            seen: set[int] = set()
            total = 0
            for sub in self._panel_plans or ():
                if sub is not None and id(sub) not in seen:
                    seen.add(id(sub))
                    total += sub.scratch_bytes
            return total
        if self._strided:
            return sum(ws.nbytes for ws in self._strided_ws.values())
        if self._tscratch is not None:
            return self._tscratch.total_bytes
        if self._workspace is not None:
            return self._workspace.nbytes
        return 0

    @property
    def _own_scratch_bytes(self) -> int:
        """Scratch this plan itself holds (sub-plans account separately)."""
        if self.tilings is None:
            return 0
        return self.scratch_bytes

    @property
    def pooled_bytes(self) -> int:
        """Bytes held by this plan's pooled buffers and scratch."""
        if self._strided:
            stage = 0 if self._stage is None else self._stage.buf.base.nbytes
            return self.scratch_bytes + stage
        total = 0
        for mm in (self._a_mm, self._b_mm, self._c_mm):
            if mm is not None:
                total += mm.buf.nbytes
        if self._workspace is not None:
            total += self._workspace.total_bytes
        if self._tscratch is not None:
            total += self._tscratch.total_bytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        key = self.key
        shape = "panelled" if self.tilings is None else (
            "strided" if self._strided else "well-behaved")
        sched = (
            f", tasks:{key.schedule.depth}" if key.schedule.parallel else ""
        )
        return (
            f"CompiledPlan({key.m}x{key.k}x{key.n}, "
            f"op=({key.op_a.value},{key.op_b.value}), {key.variant}"
            f"{sched}, {shape})"
        )


class BatchPlan:
    """A stacked-Morton execution plan for many same-geometry problems.

    Owns pooled batch-major stacks — operand/product
    :class:`BatchMortonMatrix` buffers of capacity ``cap`` (a
    :func:`batch_size_class`) plus a :class:`BatchWorkspace` — and executes
    whole batches through **one** Winograd/Strassen recursion: every
    addition is a single ufunc over ``(B, elems)`` slabs and every leaf
    product one batched ``matmul`` over a ``(B, T, T)`` stack.  Results
    are bit-identical to per-item :meth:`CompiledPlan.execute` — the
    recursion code and addition order are literally the same, only the
    leading batch axis differs.

    ``tasks`` schedules stripe the *batch axis* across the session's
    worker pool (contiguous row stripes with disjoint workspace rows)
    instead of expanding one item's recursion into a task DAG — many small
    problems parallelise better across items than within one.

    Conversion reuses one shared :class:`ConversionTable` per side: each
    item is copied in through the geometry's strided boxes, and the
    products come out with one box copy for the whole stack.

    Cached in the session's LRU alongside :class:`CompiledPlan`, keyed by
    ``(PlanKey, cap)``; eviction releases the stacks.  Requires a
    well-behaved tiling and ``memory != "ip_overwrite"`` (the batched
    recursion never clobbers operands — the pooled stacks' zero pads must
    survive across executions).
    """

    def __init__(self, key: PlanKey, cap: int, session) -> None:
        self.key = key
        self.cap = cap
        self.session = session
        self._lock = threading.Lock()
        self._cache_hit = False
        memory = resolve_memory(key.memory)
        if memory == "ip_overwrite":
            raise PlanError(
                "the batched path cannot use memory='ip_overwrite' "
                "(it would clobber the pooled operand stacks)"
            )
        self.tilings = key.policy.plan(key.m, key.k, key.n)
        if self.tilings is None:
            raise PlanError(
                f"{key.m}x{key.k}x{key.n} needs the panelled path; "
                "the batched path serves well-behaved tilings only"
            )
        tm, tk, tn = self.tilings
        dt = key.np_dtype
        self._debug = bool(getattr(session, "debug", False))
        self._poisoned = False
        self._ops = NumpyOps(
            key.kernel,
            trace=getattr(session, "trace", None),
            validate=self._debug,
        )
        # Stacks are large power-of-two-multiple allocations; distinct
        # stagger indices keep same-item rows of A/B/C (and the workspace
        # buffers, which continue the sequence) from ever landing
        # cache-set-congruent — the paper's Section 4 conflict problem
        # resurfacing at the batch level.
        #
        # As on the per-item path, a transposed operand of a Winograd
        # plan keeps its stack in *native* orientation (straight-copy
        # conversion) and the striped recursion reads it through a
        # TransposedView; Strassen stays transpose-fused-conversion.
        self._relabel_a = bool(key.trans_a and key.variant == "winograd")
        self._relabel_b = bool(key.trans_b and key.variant == "winograd")
        if self._relabel_a:
            self._a = BatchMortonMatrix.zeros(
                cap, key.k, key.m, tk, tm, dtype=dt, stagger=1
            )
        else:
            self._a = BatchMortonMatrix.zeros(
                cap, key.m, key.k, tm, tk, dtype=dt, stagger=1
            )
        if self._relabel_b:
            self._b = BatchMortonMatrix.zeros(
                cap, key.n, key.k, tn, tk, dtype=dt, stagger=2
            )
        else:
            self._b = BatchMortonMatrix.zeros(
                cap, key.k, key.n, tk, tn, dtype=dt, stagger=2
            )
        self._c = BatchMortonMatrix.zeros(
            cap, key.m, key.n, tm, tn, dtype=dt, stagger=3
        )
        self.buffers_allocated = 3
        self._ws = BatchWorkspace(
            cap, tm.depth, tm.tile, tk.tile, tn.tile,
            with_q=memory == "classic", schedule=memory, dtype=dt, stagger=4,
        )
        per_level = 2 if memory == "two_temp" else 4
        self.buffers_allocated += per_level * tm.depth
        self._tables = {
            name: conversion_table(
                mm.rows, mm.cols, mm.tile_r, mm.tile_c, mm.depth
            )
            for name, mm in (("a", self._a), ("b", self._b), ("c", self._c))
        }
        # Fused convert-and-add packing over the batch axis (opt-in): each
        # row's top-level S1/S3/T1/T3 sums are written during its
        # dense->Morton copy.
        self._fused = (
            bool(getattr(session, "fused_pack", False))
            and key.variant == "winograd"
            and tm.depth >= 1
            and not self._relabel_a
            and not self._relabel_b
        )
        self._fdsts: dict[str, np.ndarray] = {}
        if self._fused:
            qa = self._a.buf.shape[1] // 4
            qb = self._b.buf.shape[1] // 4
            lv = self._ws.view(0, cap).at(tm.depth - 1)
            self._fdsts = {
                # Row-stacked analogues of CompiledPlan._pack_destinations:
                # quadrant column slices of the operand stacks for S1/T1,
                # the outermost batch-workspace level's S/T stacks for
                # S3/T3 (stripe views slice the same raw arrays, so every
                # stripe reads its own packed rows).
                "S1": self._a.buf[:, 2 * qa : 3 * qa],
                "T1": self._b.buf[:, qb : 2 * qb],
                "S3": lv.s.buf,
                "T3": lv.t.buf,
            }
        # Stripe views are pure geometry; reuse them (and their memoised
        # quadrant/leaf caches) across executions.
        self._stripes: dict = {}

    # ------------------------------------------------------------- execute

    def _fused_convert_in(
        self, name: str, arrs, out: BatchMortonMatrix, transpose: bool,
        quads, packs,
    ) -> None:
        """Fused fill of ``out[:len(arrs)]``: quadrant gathers plus packs."""
        table = self._tables[name]
        tr = self._ops.trace
        n = len(arrs)
        t0 = time.perf_counter()
        for i, arr in enumerate(arrs):
            dense_to_morton_quadrants(
                arr, out.item(i), quads, transpose=transpose,
                zero_pad=False, table=table,
            )
        if tr is not None and tr.enabled:
            tr.emit(
                "convert", label=f"batch-{name}",
                seconds=time.perf_counter() - t0, items=n, fused=True,
            )
        for label, op, q0, q1 in packs:
            t0 = time.perf_counter()
            pack_morton_quarter_batch(
                self._fdsts[label][:n], arrs, op, q0, q1, table,
                transpose=transpose,
            )
            if tr is not None and tr.enabled:
                tr.emit(
                    "pack", label=f"batch-{label}",
                    seconds=time.perf_counter() - t0, items=n,
                )

    def _run_stripe(self, lo: int, hi: int) -> None:
        views = self._stripes.get((lo, hi))
        if views is None:
            a = self._a.stripe(lo, hi)
            b = self._b.stripe(lo, hi)
            if self._relabel_a:
                a = transposed_view(a)
            if self._relabel_b:
                b = transposed_view(b)
            views = self._stripes[(lo, hi)] = (
                a, b,
                self._c.stripe(lo, hi),
                self._ws.view(lo, hi),
            )
        a, b, c, ws = views
        if self.key.variant == "winograd":
            winograd_multiply(
                a, b, c, ops=self._ops, workspace=ws,
                memory=self.key.memory, alpha=self.key.alpha,
                prepacked=self._fused,
            )
        else:
            strassen_multiply(
                a, b, c, ops=self._ops, workspace=ws, alpha=self.key.alpha
            )

    def execute_batch(
        self,
        problems: list[GemmProblem],
        cs: list,
        timings: PhaseTimings | None = None,
        indices=None,
    ) -> list[np.ndarray]:
        """Run validated same-geometry problems through the stacked path.

        ``cs[i]`` is item ``i``'s output operand (or ``None``); results
        come back in input order with full per-item ``alpha``/``beta``
        semantics applied.

        ``indices`` maps chunk positions back to the *caller's* item
        numbering (``indices[i]`` is the input index of ``problems[i]``;
        defaults to ``0..n-1``).  Any failure attributable to one item —
        geometry validation, output scaling — raises
        :class:`repro.errors.BatchItemError` carrying that input index
        with the original exception chained; a multi-item failure reports
        the smallest affected index.  Whatever happens, the pooled stacks
        are left quiescent (the lock is released only at phase
        boundaries), so the plan stays reusable after an error.
        """
        key = self.key
        n_items = len(problems)
        if n_items == 0:
            return []
        if indices is None:
            indices = range(n_items)
        if n_items > self.cap:
            raise PlanError(
                f"batch of {n_items} exceeds this plan's capacity {self.cap}"
            )
        for i, p in enumerate(problems):
            if (p.m, p.k, p.n) != (key.m, key.k, key.n):
                cause = ShapeError(
                    f"operands give GEMM dims {(p.m, p.k, p.n)}, but this "
                    f"batch plan is compiled for {(key.m, key.k, key.n)}"
                )
                raise BatchItemError(indices[i], cause) from cause
            if (p.op_a, p.op_b) != (key.op_a, key.op_b):
                cause = PlanError(
                    f"ops {(p.op_a.value, p.op_b.value)} do not match the "
                    f"plan's {(key.op_a.value, key.op_b.value)}"
                )
                raise BatchItemError(indices[i], cause) from cause
            # alpha is folded into the one shared recursion, so it cannot
            # vary per item; beta is a per-item epilogue and may.
            if p.alpha != key.alpha:
                cause = PlanError(
                    f"alpha={p.alpha} does not match the batch plan spec's "
                    f"alpha={key.alpha}"
                )
                raise BatchItemError(indices[i], cause) from cause
        rec = PhaseTimings()
        transpose_a = key.trans_a and not self._relabel_a
        transpose_b = key.trans_b and not self._relabel_b
        tr = self._ops.trace
        with self._lock:
            if self._debug:
                if self._poisoned:
                    check_quiescent(self._ws, "batch-workspace")
            fused0 = self._ops.fused_adds
            pool = None
            workers = 1
            if key.schedule.parallel and n_items > 1:
                pool = self.session._ensure_pool()
                workers = key.schedule.workers or pool.workers
            if tr is not None and tr.enabled:
                if self._relabel_a:
                    tr.emit("relabel", label="batch-a", items=n_items)
                if self._relabel_b:
                    tr.emit("relabel", label="batch-b", items=n_items)
            t0 = time.perf_counter()
            if self._fused:
                self._fused_convert_in(
                    "a", [p.a for p in problems], self._a, transpose_a,
                    CONVERT_QUADS_A, FUSED_PACKS_A,
                )
                self._fused_convert_in(
                    "b", [p.b for p in problems], self._b, transpose_b,
                    CONVERT_QUADS_B, FUSED_PACKS_B,
                )
            else:
                dense_to_morton_batch(
                    [p.a for p in problems], self._a, transpose=transpose_a,
                    table=self._tables["a"],
                )
                dense_to_morton_batch(
                    [p.b for p in problems], self._b, transpose=transpose_b,
                    table=self._tables["b"],
                )
            t1 = time.perf_counter()
            if not self._fused and tr is not None and tr.enabled:
                # The fused path emitted per-side convert events above
                # (gather-only seconds, pack passes reported separately).
                tr.emit(
                    "convert", label="batch-in", seconds=t1 - t0,
                    items=n_items,
                )
            if self._debug and not self._fused:
                # Phase boundary: every occupied stack row's pad must be
                # exactly zero before the shared recursion runs over it.
                # Fused stacks skip the check — the A21/B12 column slots
                # hold packed sums whose support extends into the pad.
                for i in range(n_items):
                    check_pad_zero(self._a.item(i), f"a[{indices[i]}]")
                    check_pad_zero(self._b.item(i), f"b[{indices[i]}]")
            run_batch_stripes(
                pool, n_items, self._run_stripe, workers,
                name=f"batch-{key.m}x{key.k}x{key.n}",
                tracer=tr,
            )
            t2 = time.perf_counter()
            if key.beta == 0.0:
                # Bulk copy to fresh dense arrays; per-item beta (a
                # directly-invoked batch may carry one) is applied in the
                # post-lock epilogue below.
                outs = morton_to_dense_batch(
                    self._c, n_items, table=self._tables["c"]
                )
                results = first_err = None
            else:
                # The spec's accumulate: each item's product is folded
                # into its caller C in one fused scale-and-add sweep of
                # the conversion — never a separate full-matrix pass.
                outs = None
                results, first_err = self._fused_convert_out(
                    problems, cs, indices
                )
            t3 = time.perf_counter()
            if tr is not None and tr.enabled:
                tr.emit(
                    "convert", label="batch-out", seconds=t3 - t2,
                    items=n_items,
                )
                if key.beta != 0.0:
                    tr.emit(
                        "accumulate", label="batch-c",
                        beta=float(key.beta), items=n_items,
                    )
            fused_delta = self._ops.fused_adds - fused0
            if self._debug:
                self._ws.poison()
                self._poisoned = True
        rec.to_morton = t1 - t0
        rec.compute = t2 - t1
        rec.from_morton = t3 - t2
        if timings is not None:
            timings.to_morton += rec.to_morton
            timings.compute += rec.compute
            timings.from_morton += rec.from_morton
        self.session._record_batch_execution(
            self, n_items, rec, fused_delta,
            fused_packs=4 * n_items if self._fused else 0,
        )
        if results is None:
            # beta == 0 epilogue: alpha is already folded into the
            # recursion, so only the per-item beta/copy-back remains.
            results = []
            first_err = None
            for i, (p, c, d) in enumerate(zip(problems, cs, outs)):
                try:
                    if p.beta != 0.0:
                        c *= p.beta
                        c += d
                        r = c
                    elif c is not None:
                        c[...] = d
                        r = c
                    else:
                        r = d
                except Exception as exc:  # noqa: BLE001 - re-raised with index
                    # Finish the remaining items (their outputs are
                    # already computed) before reporting the smallest
                    # failing index.
                    if first_err is None:
                        err = BatchItemError(indices[i], exc)
                        err.__cause__ = exc
                        first_err = err
                    results.append(None)
                    continue
                results.append(r)
        if first_err is not None:
            raise first_err
        return results

    def _fused_convert_out(self, problems, cs, indices):
        """Per-item fused beta conversion (lock held); returns results/error.

        Items whose ``beta`` is 0 (or whose C cannot take the computation
        dtype directly) fall back to a fresh gather plus copy-back; a
        failing item (e.g. a read-only C) is recorded and the rest still
        convert, keeping the pooled stacks quiescent.
        """
        key = self.key
        table = self._tables["c"]
        results = []
        first_err: BatchItemError | None = None
        for i, p in enumerate(problems):
            c = cs[i]
            try:
                if c is not None and (
                    p.beta != 0.0 or c.dtype == key.np_dtype
                ):
                    r = morton_to_dense(
                        self._c.item(i), out=c, beta=p.beta, table=table
                    )
                else:
                    d = morton_to_dense(self._c.item(i), table=table)
                    if c is not None:
                        c[...] = d
                        r = c
                    else:
                        r = d
            except Exception as exc:  # noqa: BLE001 - re-raised with index
                if first_err is None:
                    err = BatchItemError(indices[i], exc)
                    err.__cause__ = exc
                    first_err = err
                results.append(None)
                continue
            results.append(r)
        return results, first_err

    # ----------------------------------------------------------- accounting

    @property
    def scratch_bytes(self) -> int:
        """Recursion scratch bytes the stacked workspace holds."""
        return self._ws.nbytes

    @property
    def _own_scratch_bytes(self) -> int:
        return self.scratch_bytes

    @property
    def pooled_bytes(self) -> int:
        """Bytes held by the stacked operand/product buffers and scratch."""
        return (
            self._a.nbytes + self._b.nbytes + self._c.nbytes + self._ws.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        key = self.key
        return (
            f"BatchPlan({key.m}x{key.k}x{key.n} x{self.cap}, "
            f"op=({key.op_a.value},{key.op_b.value}), {key.variant}, "
            f"{key.memory}, {key.dtype})"
        )
