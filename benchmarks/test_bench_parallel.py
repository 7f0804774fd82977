"""Scaling bench: the task-DAG scheduler and plan-cached conversions.

Emits ``BENCH_parallel.json`` at the repo root with the measured modes:

* ``sequential`` — warm plan-cached session, sequential recursion;
* ``legacy_7way`` — the historical free-standing parallel path, faithfully
  re-created: a 7-worker pool spun up *per call*, fresh scratch allocated
  per call, tile-loop conversions (this is what ``parallel_multiply(a, b)``
  did before sessions owned a persistent pool);
* ``tasks_d1`` / ``tasks_d2`` — warm sessions executing the prebuilt task
  graph at expansion depth 1 / 2 on a persistent 4-worker pool;

plus a conversion section timing the strided box-copy conversion in each
direction against a plain same-shape ``np.copyto`` at plan depth >= 4.

Hard assertions hold on any host, single-core CI included: results are
bit-identical across modes, the warm task schedule beats the
spin-up-per-call legacy path, and each conversion direction costs at most
``CONVERT_COPY_RATIO`` plain copies of the same matrix.  Thread *scaling*
(tasks vs sequential) is recorded always but asserted only when the host
has >= 4 CPUs — a 1-core container cannot demonstrate it.

``BENCH_PARALLEL_QUICK=1`` shrinks sizes/rounds for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.parallel import TaskScratch, build_winograd_graph
from repro.core.scheduler import WorkerPool
from repro.core.truncation import DEFAULT_POLICY
from repro.engine import GemmSession
from repro.layout.convert import conversion_table, dense_to_morton, morton_to_dense
from repro.layout.matrix import MortonMatrix
from repro.layout.padding import select_common_tiling

from conftest import emit

QUICK = os.environ.get("BENCH_PARALLEL_QUICK", "") not in ("", "0")
GEMM_SIZES = [192] if QUICK else [512, 1024]
CONVERT_SIZES = [512] if QUICK else [513, 1024]
ROUNDS = 3 if QUICK else 5
POOL_WORKERS = 4
#: Most plain same-shape copies one conversion direction may cost.
CONVERT_COPY_RATIO = 3.0
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _timed(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _legacy_7way(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One call of the historical parallel path: everything per-call.

    Planned with the session default's tiling, so its result is comparable
    bit for bit with the sessions' results.
    """
    tm, tk, tn = DEFAULT_POLICY.plan(
        a.shape[0], a.shape[1], b.shape[1]
    )
    a_mm = MortonMatrix.zeros(a.shape[0], a.shape[1], tm, tk)
    b_mm = MortonMatrix.zeros(b.shape[0], b.shape[1], tk, tn)
    c_mm = MortonMatrix.empty(a.shape[0], b.shape[1], tm, tn)
    dense_to_morton(a, a_mm, zero_pad=False)
    dense_to_morton(b, b_mm, zero_pad=False)
    scratch = TaskScratch(
        tm.tile, tk.tile, tn.tile, tm.depth, parallel_depth=1, workers=7
    )
    graph = build_winograd_graph(a_mm, b_mm, c_mm, scratch)
    pool = WorkerPool(7, name="bench-legacy")
    try:
        pool.run(graph)
    finally:
        pool.shutdown()
    return morton_to_dense(c_mm)


@pytest.fixture(scope="module")
def report():
    """Accumulates sections; written to BENCH_parallel.json at teardown."""
    data = {
        "benchmark": "parallel-scaling",
        "schema_version": 1,
        "quick": QUICK,
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "pool_workers": POOL_WORKERS,
        },
        "gemm": [],
        "conversion": [],
    }
    yield data
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    emit("BENCH_parallel.json", f"written to {OUT_PATH}")


@pytest.mark.parametrize("n", GEMM_SIZES)
def test_scheduler_scaling(report, square_operands, n):
    a, b = square_operands(n)
    depth = DEFAULT_POLICY.plan(n, n, n)[0].depth

    with GemmSession() as seq:
        ref = seq.multiply(a, b)  # compile
        seq.multiply(a, b)
        t_seq = _timed(lambda: seq.multiply(a, b), ROUNDS)

    outputs = {}
    outputs["legacy_7way"] = _legacy_7way(a, b)
    t_legacy = _timed(lambda: _legacy_7way(a, b), ROUNDS)

    times = {"sequential": t_seq, "legacy_7way": t_legacy}
    stats = {}
    for label, sched in (("tasks_d1", "tasks:1"), ("tasks_d2", "tasks:2")):
        with GemmSession(max_workers=POOL_WORKERS) as s:
            outputs[label] = s.multiply(a, b, schedule=sched)
            s.multiply(a, b, schedule=sched)
            times[label] = _timed(
                lambda: s.multiply(a, b, schedule=sched), ROUNDS
            )
            st = s.stats()
            stats[label] = {
                "tasks_run": st.tasks_run,
                "worker_utilization": round(st.worker_utilization, 4),
            }

    bit_identical = all(np.array_equal(out, ref) for out in outputs.values())
    row = {
        "n": n,
        "depth": depth,
        "rounds": ROUNDS,
        "seconds": {k: round(v, 6) for k, v in times.items()},
        "bit_identical": bit_identical,
        "stats": stats,
    }
    report["gemm"].append(row)
    emit(
        f"Scheduler scaling n={n}",
        "  ".join(f"{k}={v * 1e3:.2f}ms" for k, v in times.items())
        + f"  bit_identical={bit_identical}",
    )

    assert bit_identical, "all schedules must be bit-identical"
    best_tasks = min(times["tasks_d1"], times["tasks_d2"])
    assert best_tasks < t_legacy, (
        f"warm task schedule ({best_tasks * 1e3:.2f} ms) must beat the "
        f"spin-up-per-call legacy path ({t_legacy * 1e3:.2f} ms)"
    )
    if (os.cpu_count() or 1) >= 4 and n >= 1024:
        # Thread scaling needs real cores; a 1-CPU container records the
        # numbers above but cannot demonstrate speedup over sequential.
        assert times["tasks_d2"] < t_seq and times["tasks_d2"] < t_legacy, (
            "with >= 4 CPUs the depth-2 task schedule should beat both "
            f"sequential and legacy at n={n}: {times}"
        )


@pytest.mark.parametrize("n", CONVERT_SIZES)
def test_box_conversion(report, square_operands, n):
    a, _ = square_operands(n)
    tiling = select_common_tiling((n, n))[0]
    assert tiling.depth >= 4, "conversion bench targets deep tilings"
    table = conversion_table(n, n, tiling.tile, tiling.tile, tiling.depth)
    m = MortonMatrix.zeros(n, n, tiling, tiling)
    out = np.empty_like(a)
    plain = np.empty_like(a)

    # Interleaved rounds: each conversion and its plain-copy reference
    # run back to back, so host drift hits both; the best round counts.
    rounds = max(ROUNDS, 5)
    best = dict.fromkeys(("to_morton", "to_dense", "copy"), float("inf"))
    for _ in range(rounds):
        for key, fn in (
            ("to_morton", lambda: dense_to_morton(a, m, zero_pad=False,
                                                  table=table)),
            ("copy", lambda: np.copyto(plain, a)),
            ("to_dense", lambda: morton_to_dense(m, out=out, table=table)),
        ):
            best[key] = min(best[key], _timed(fn, 1))
    assert np.array_equal(out, a)

    row = {
        "n": n,
        "tile": tiling.tile,
        "depth": tiling.depth,
        "boxes": len(table.boxes),
        "copyto_seconds": round(best["copy"], 6),
    }
    for key in ("to_morton", "to_dense"):
        row[key] = {
            "box_seconds": round(best[key], 6),
            "copy_ratio": round(best[key] / best["copy"], 3),
        }
    report["conversion"].append(row)
    emit(
        f"Conversion n={n} (tile {tiling.tile}, depth {tiling.depth}, "
        f"{len(table.boxes)} boxes)",
        f"to_morton={best['to_morton'] * 1e3:.2f}ms "
        f"to_dense={best['to_dense'] * 1e3:.2f}ms "
        f"copyto={best['copy'] * 1e3:.2f}ms",
    )
    for key in ("to_morton", "to_dense"):
        assert best[key] <= CONVERT_COPY_RATIO * best["copy"], (
            f"{key} ({best[key] * 1e3:.2f} ms) must cost at most "
            f"{CONVERT_COPY_RATIO}x a plain copy ({best['copy'] * 1e3:.2f} ms)"
        )
