"""Outside-in layer tracing: spans around public calls, counted passes.

The engine's own per-execution ledger does not exist yet, so the layers
are timed from outside: one geometry is run through the public functions
the engine itself composes —

    session.plan(...).tilings            (engine)
    dense_to_morton[_batch]              (layout; a fused plan runs
      or dense_to_morton_quadrants        three-quadrant gathers plus
      + pack_morton_quarter[_batch]       the four packed sums instead)
    winograd_multiply                    (core, with blas leaf products)
    morton_to_dense[_batch]              (layout)

— following the choices the engine's plan made (fused packing, tile loop
or index table per conversion; see :func:`engine_choices`), and
:class:`Pipeline` must reproduce ``session.multiply`` / ``multiply_many``
bit for bit.  :class:`Spans` records a span around each call;
:class:`CountingOps` (a :class:`NumpyOps` subclass) counts and times the
recursion's addition passes and leaf products, which are too many (tens
of thousands per call) to keep as spans.  Their totals ride on the
enclosing ``core.recursion`` span, and :func:`self_times` treats them as
that span's children.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.core import NumpyOps, Workspace, resolve_memory, winograd_multiply
from repro.core.winograd import (
    CONVERT_QUADS_A,
    CONVERT_QUADS_B,
    FUSED_PACKS_A,
    FUSED_PACKS_B,
)
from repro.core.workspace import BatchWorkspace
from repro.engine import BATCH_CAP_MAX
from repro.layout import MortonMatrix
from repro.layout.convert import (
    conversion_table,
    dense_to_morton,
    dense_to_morton_batch,
    dense_to_morton_quadrants,
    morton_to_dense,
    morton_to_dense_batch,
    pack_morton_quarter,
    pack_morton_quarter_batch,
)
from repro.layout.matrix import BatchMortonMatrix
from repro.layout.relabel import transposed_view

__all__ = [
    "Spans", "CountingOps", "Pipeline", "engine_plan", "engine_choices",
    "self_times", "chrome_trace",
]


class Spans:
    """In-memory span recorder: ``(id, parent, name, start, end, args)``.

    One recorder is one track (the session calls, the plain pipeline, the
    counted pipeline).  Spans nest through a stack, so a span's parent is
    the span open when it started.  Nothing is written until
    :func:`chrome_trace` runs.
    """

    def __init__(self, workload: str, track: str) -> None:
        self.workload = workload
        self.track = track
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **args):
        rec = {
            "id": len(self.records), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0, "end": 0.0, "args": args,
        }
        self.records.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()


class CountingOps(NumpyOps):
    """The arithmetic backend with every addition pass and leaf product
    counted and timed.

    ``add_bytes`` counts bytes each pass must read and write (three
    operand streams for two-input passes, four for ``add3``);
    ``leaf_flops`` counts ``2 m k n`` per leaf product and batch item.
    """

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        self.reset()

    def reset(self) -> None:
        self.add_passes = 0
        self.add_seconds = 0.0
        self.add_bytes = 0
        self.leaf_calls = 0
        self.leaf_seconds = 0.0
        self.leaf_flops = 0

    def _pass(self, t0: float, dst, streams: int) -> None:
        self.add_seconds += perf_counter() - t0
        self.add_passes += 1
        self.add_bytes += streams * dst.buf.nbytes

    def add(self, dst, x, y) -> None:
        t0 = perf_counter()
        super().add(dst, x, y)
        self._pass(t0, dst, 3)

    def sub(self, dst, x, y) -> None:
        t0 = perf_counter()
        super().sub(dst, x, y)
        self._pass(t0, dst, 3)

    def iadd(self, dst, x) -> None:
        t0 = perf_counter()
        super().iadd(dst, x)
        self._pass(t0, dst, 3)

    def add3(self, dst, x, y, z) -> None:
        t0 = perf_counter()
        super().add3(dst, x, y, z)
        self._pass(t0, dst, 4)

    def sub_into(self, dst, x) -> None:
        t0 = perf_counter()
        super().sub_into(dst, x)
        self._pass(t0, dst, 3)

    def leaf_mult(self, a, b, dst, alpha: float = 1.0) -> None:
        t0 = perf_counter()
        super().leaf_mult(a, b, dst, alpha)
        self.leaf_seconds += perf_counter() - t0
        self.leaf_calls += 1
        items = getattr(a, "batch", None) or 1
        self.leaf_flops += 2 * a.tile_r * a.tile_c * b.tile_c * items


def _table(mm):
    return conversion_table(mm.rows, mm.cols, mm.tile_r, mm.tile_c, mm.depth)


def engine_plan(session, plan):
    """The plan object that executes ``plan``'s key: ``plan`` itself, or
    for a geometry run through ``multiply_many`` the stacked plan the
    session compiled for it."""
    for bp in session._batch_plans.values():
        if bp.key == plan.key:
            return bp
    return plan


def engine_choices(plan) -> tuple[bool, frozenset]:
    """The conversion choices a set-up engine plan has made.

    Returns ``(fused, tabled)``: whether the plan fuses the top level's
    S1/S3/T1/T3 sums into the dense->Morton gather, and which of the
    ``"a"``/``"b"``/``"c"`` conversions gather through an index table
    rather than the tile loop.  These are decisions the engine keeps on
    its plan objects (a :class:`~repro.engine.plan.CompiledPlan` settles
    its loop-vs-table sites over its first two executions), so call this
    after the set-up calls.  This and :func:`engine_plan` are the only
    readers of private engine state; the work itself goes through the
    public functions.
    """
    fused = bool(plan._fused)
    if hasattr(plan, "_sites"):  # CompiledPlan
        tabled = {n for n, site in plan._sites.items()
                  if site.pick() is not None}
        if fused:
            tabled |= {"a", "b"}
    else:  # BatchPlan: a table wherever it built one
        tabled = set(plan._tables)
    return fused, frozenset(tabled)


class Pipeline:
    """One geometry's engine plan, rerun through the public building blocks.

    ``plan`` is the engine's own plan for the geometry (the
    :class:`~repro.engine.plan.BatchPlan` for a batch), taken after its
    set-up calls.  The pipeline takes the plan's tilings and schedule
    and :func:`engine_choices`, and allocates its own buffers once, as a
    compiled plan pools them; operand pads stay zero because the
    recursion never writes its operands.  A transposed operand keeps its
    native orientation in Morton order and is read through a transposed
    view, as the engine does.  A fused plan converts three quadrants per
    operand with ``dense_to_morton_quadrants`` and packs S1/S3/T1/T3 with
    ``pack_morton_quarter`` into the slots the engine uses, then runs
    ``winograd_multiply(prepacked=True)``.
    """

    def __init__(self, ops, plan) -> None:
        g = ops.geom
        self.operands = ops
        self.geom = g
        tm, tk, tn = plan.tilings
        self.tilings = plan.tilings
        self.memory = resolve_memory(plan.key.memory)
        if self.memory == "ip_overwrite" or plan.key.schedule.parallel:
            raise ValueError("the outside pipeline runs sequential plans "
                             "that do not clobber their operands")
        self.kernel = plan.key.kernel
        self.fused, tabled = engine_choices(plan)
        dt = np.dtype(g.dtype)
        depth = tm.depth
        classic = self.memory == "classic"
        if g.batch:
            self.cap = plan.cap
            self.a = BatchMortonMatrix.zeros(plan.cap, g.m, g.k, tm, tk,
                                             dtype=dt, stagger=1)
            self.b = BatchMortonMatrix.zeros(plan.cap, g.k, g.n, tk, tn,
                                             dtype=dt, stagger=2)
            self.c = BatchMortonMatrix.zeros(plan.cap, g.m, g.n, tm, tn,
                                             dtype=dt, stagger=3)
            self.ws = BatchWorkspace(
                plan.cap, depth, tm.tile, tk.tile, tn.tile, with_q=classic,
                schedule=self.memory, dtype=dt, stagger=4,
            )
            self._stripes: dict = {}
        else:
            if g.trans_a:
                self.a = MortonMatrix.zeros(g.k, g.m, tk, tm, dtype=dt)
            else:
                self.a = MortonMatrix.zeros(g.m, g.k, tm, tk, dtype=dt)
            if g.trans_b:
                self.b = MortonMatrix.zeros(g.n, g.k, tn, tk, dtype=dt)
            else:
                self.b = MortonMatrix.zeros(g.k, g.n, tk, tn, dtype=dt)
            self.c = MortonMatrix.empty(g.m, g.n, tm, tn, dtype=dt)
            self.a_eff = transposed_view(self.a) if g.trans_a else self.a
            self.b_eff = transposed_view(self.b) if g.trans_b else self.b
            if classic:
                self.ws = Workspace(depth, tm.tile, tk.tile, tn.tile,
                                    with_q=True, dtype=dt)
            else:
                self.ws = Workspace(depth, tm.tile, tk.tile, tn.tile,
                                    schedule="two_temp", dtype=dt)
        self.tables = {
            n: _table(mm)
            for n, mm in (("a", self.a), ("b", self.b), ("c", self.c))
            if n in tabled
        }
        self.packs = self._pack_destinations() if self.fused else {}

    def _pack_destinations(self) -> dict[str, np.ndarray]:
        """Where the four packed sums go, as in the engine: S1/T1 into the
        A21/B12 quadrant slots, S3/T3 into the outermost level's S/T
        scratch (row stacks of them for a batch)."""
        if self.geom.batch:
            qa = self.a.buf.shape[1] // 4
            qb = self.b.buf.shape[1] // 4
            lv = self.ws.view(0, self.cap).at(self.tilings[0].depth - 1)
            return {"S1": self.a.buf[:, 2 * qa : 3 * qa],
                    "T1": self.b.buf[:, qb : 2 * qb],
                    "S3": lv.s.buf, "T3": lv.t.buf}
        qa = self.a.size // 4
        qb = self.b.size // 4
        lv = self.ws.at(self.tilings[0].depth - 1)
        return {"S1": self.a.buf[2 * qa : 3 * qa],
                "T1": self.b.buf[qb : 2 * qb],
                "S3": lv.s.buf, "T3": lv.t.buf}

    @property
    def scratch_bytes(self) -> int:
        return self.ws.nbytes

    @property
    def padded_elems(self) -> int:
        return self.geom.items * (self.a.size + self.b.size + self.c.size)

    @property
    def logical_elems(self) -> int:
        g = self.geom
        return g.items * (g.m * g.k + g.k * g.n + g.m * g.n)

    @property
    def convert_bytes(self) -> int:
        """Bytes the conversions read and write.

        A plain conversion reads and writes each logical element once.  A
        fused operand gathers three quadrants and packs two sums of two
        quadrants each: it reads 7/4 and writes 5/4 of its elements.  A
        beta epilogue also reads the caller's C.
        """
        g = self.geom
        a, b, c = g.m * g.k, g.k * g.n, g.m * g.n
        elems = 2 * c + (3 if self.fused else 2) * (a + b)
        if g.beta:
            elems += c
        return g.items * elems * np.dtype(g.dtype).itemsize

    def run(self, ops, spans: Spans):
        """One call's worth of work; returns what the engine call returns."""
        if self.geom.batch:
            return self._run_batch(ops, spans)
        t = self.tables
        g = self.geom
        src = self.operands
        with spans.span("layout.convert_in", fused=self.fused):
            if self.fused:
                for name, dense, mm, quads, packs in (
                    ("a", src.a, self.a, CONVERT_QUADS_A, FUSED_PACKS_A),
                    ("b", src.b, self.b, CONVERT_QUADS_B, FUSED_PACKS_B),
                ):
                    dense_to_morton_quadrants(dense, mm, quads,
                                              zero_pad=False, table=t[name])
                    for label, op, q0, q1 in packs:
                        pack_morton_quarter(self.packs[label], dense, op,
                                            q0, q1, t[name])
            else:
                dense_to_morton(src.a, self.a, zero_pad=False,
                                table=t.get("a"))
                dense_to_morton(src.b, self.b, zero_pad=False,
                                table=t.get("b"))
        with spans.span("core.recursion") as rec:
            winograd_multiply(self.a_eff, self.b_eff, self.c, ops=ops,
                              workspace=self.ws, memory=self.memory,
                              prepacked=self.fused)
        _attach_counts(rec, ops)
        with spans.span("layout.convert_out"):
            if g.beta:
                return morton_to_dense(self.c, out=src.c, beta=g.beta,
                                       table=t.get("c"))
            return morton_to_dense(self.c, table=t.get("c"))

    def _run_batch(self, ops, spans: Spans) -> list:
        t = self.tables
        pairs = self.operands.pairs
        outs: list = []
        for lo in range(0, len(pairs), BATCH_CAP_MAX):
            chunk = pairs[lo : lo + BATCH_CAP_MAX]
            n = len(chunk)
            views = self._stripes.get(n)
            if views is None:
                views = self._stripes[n] = (
                    self.a.stripe(0, n), self.b.stripe(0, n),
                    self.c.stripe(0, n), self.ws.view(0, n),
                )
            a, b, c, ws = views
            with spans.span("layout.convert_in", items=n, fused=self.fused):
                for name, arrs, stack, quads, packs in (
                    ("a", [p[0] for p in chunk], self.a, CONVERT_QUADS_A,
                     FUSED_PACKS_A),
                    ("b", [p[1] for p in chunk], self.b, CONVERT_QUADS_B,
                     FUSED_PACKS_B),
                ):
                    if not self.fused:
                        dense_to_morton_batch(arrs, stack, table=t.get(name))
                        continue
                    for i, arr in enumerate(arrs):
                        dense_to_morton_quadrants(arr, stack.item(i), quads,
                                                  zero_pad=False,
                                                  table=t[name])
                    for label, op, q0, q1 in packs:
                        pack_morton_quarter_batch(self.packs[label][:n], arrs,
                                                  op, q0, q1, t[name])
            with spans.span("core.recursion", items=n) as rec:
                winograd_multiply(a, b, c, ops=ops, workspace=ws,
                                  memory=self.memory, prepacked=self.fused)
            _attach_counts(rec, ops)
            with spans.span("layout.convert_out", items=n):
                outs.extend(morton_to_dense_batch(self.c, n,
                                                  table=t.get("c")))
        return outs


def _attach_counts(rec: dict, ops) -> None:
    """Move a counting backend's totals onto its recursion span."""
    if isinstance(ops, CountingOps):
        rec["args"].update(
            add_passes=ops.add_passes, add_s=ops.add_seconds,
            add_bytes=ops.add_bytes, leaf_calls=ops.leaf_calls,
            leaf_s=ops.leaf_seconds, leaf_flops=ops.leaf_flops,
        )
        ops.reset()


def self_times(records: list[dict]) -> dict[str, float]:
    """Seconds of self time per layer (the span-name prefix).

    A span's self time is its duration minus the time its children cover;
    a recursion span's counted addition passes and leaf products are its
    children too, filed under ``core.add`` and ``blas``.
    """
    child = [0.0] * len(records)
    out: dict[str, float] = {}
    for r in records:
        if r["parent"] is not None:
            child[r["parent"]] += r["end"] - r["start"]
        args = r["args"]
        if "add_s" in args:
            child[r["id"]] += args["add_s"] + args["leaf_s"]
            out["core.add"] = out.get("core.add", 0.0) + args["add_s"]
            out["blas"] = out.get("blas", 0.0) + args["leaf_s"]
    for r in records:
        layer = r["name"].split(".")[0]
        own = max(0.0, r["end"] - r["start"] - child[r["id"]])
        out[layer] = out.get(layer, 0.0) + own
    return out


def chrome_trace(tracks: list[Spans], path: str) -> None:
    """Write the spans as Chrome trace-event JSON (viewable in Perfetto),
    one thread row per track."""
    t0 = min((r["start"] for s in tracks for r in s.records), default=0.0)
    pid = os.getpid()
    events: list[dict] = []
    for tid, spans in enumerate(tracks):
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": spans.track}})
        events.extend(
            {
                "name": r["name"], "cat": r["name"].split(".")[0], "ph": "X",
                "ts": (r["start"] - t0) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "pid": pid, "tid": tid,
                "args": {"id": r["id"], "parent": r["parent"],
                         "workload": spans.workload, **r["args"]},
            }
            for r in spans.records
        )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
