"""GEMM-semantics benchmark: the cost of the full GemmSpec surface.

Measures, at the paper's flagship sizes (513 and 1024), what the
redesigned operation semantics cost relative to a plain ``C = A . B``:

* **transpose** — ``trans_a=True`` consumed through Morton quadrant-swap
  relabeling.  The tentpole claim is *zero operand copies*: the traced
  ``convert`` event count of a transposed run must equal the plain
  run's exactly (the relabel is pure index bookkeeping).
* **accumulate** — ``beta != 0`` folded into the output conversion
  through the fused ``morton_to_dense(out=, beta=)`` sweep: one pass,
  guarded to < 10% wall-clock overhead over the plain multiply.

At 1024 the default plan runs on strided views of the operands (no
conversion at all, ``"strided": true``): its transposed run must convert
nothing either, and its accumulate is the staged product's banded fold
into C.

Emits ``BENCH_semantics.json`` at the repo root; hard guards live in
``validate_bench_semantics.py`` (run by ``make bench-smoke`` and CI).
Set ``BENCH_SEMANTICS_QUICK=1`` for a seconds-scale smoke run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.engine import GemmSession

QUICK = os.environ.get("BENCH_SEMANTICS_QUICK", "") not in ("", "0")
SIZES = [513] if QUICK else [513, 1024]
ROUNDS = 3 if QUICK else 5
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_semantics.json"


@pytest.fixture(scope="module")
def report():
    data = {
        "benchmark": "gemm-semantics",
        "schema_version": 1,
        "quick": QUICK,
        "host": {"cpu_count": os.cpu_count() or 1},
        "rows": [],
    }
    yield data
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    emit("BENCH_semantics.json", f"wrote {OUT_PATH} ({len(data['rows'])} rows)")


def _best_seconds(fn, rounds=ROUNDS):
    fn()  # warm-up: plan compile, pooled buffers, BLAS threads
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _convert_count(session, runner) -> int:
    """Steady-state ``convert`` events of one run (after a warm run)."""
    runner()
    session.trace.clear()
    session.trace.enable()
    runner()
    count = sum(1 for e in session.trace.events() if e.kind == "convert")
    session.trace.disable()
    return count


@pytest.mark.parametrize("n", SIZES)
def test_semantics_grid(rng, report, n):
    a = np.asfortranarray(rng.standard_normal((n, n)))
    b = np.asfortranarray(rng.standard_normal((n, n)))
    c0 = np.asfortranarray(rng.standard_normal((n, n)))
    flops = 2.0 * n**3

    with GemmSession() as s:
        secs_plain = _best_seconds(lambda: s.multiply(a, b))
        secs_trans = _best_seconds(lambda: s.multiply(a, b, trans_a=True))
        c = c0.copy()
        secs_acc = _best_seconds(
            lambda: s.multiply(a, b, c=c, beta=0.5)
        )
        converts_plain = _convert_count(s, lambda: s.multiply(a, b))
        converts_trans = _convert_count(
            s, lambda: s.multiply(a, b, trans_a=True)
        )
        strided = s.plan(n, n, n)._strided

    overhead = secs_acc / secs_plain - 1.0
    extra = converts_trans - converts_plain

    # The zero-copy claim is deterministic: assert it here too, not just
    # in the validator.
    assert extra == 0, (
        f"transposed run emitted {extra} extra convert events at n={n}"
    )

    row = {
        "n": n,
        "plain_seconds": secs_plain,
        "trans_seconds": secs_trans,
        "accumulate_seconds": secs_acc,
        "plain_gflops": flops / secs_plain / 1e9,
        "convert_count_plain": converts_plain,
        "convert_count_trans": converts_trans,
        "convert_extra": extra,
        "strided": strided,
        "accumulate_overhead": overhead,
    }
    report["rows"].append(row)
    emit(
        f"semantics n={n}",
        f"plain {secs_plain * 1e3:7.1f} ms ({row['plain_gflops']:.2f} "
        f"GFLOP/s) | trans {secs_trans * 1e3:7.1f} ms "
        f"({converts_trans} converts vs {converts_plain}, extra={extra}) | "
        f"accumulate {secs_acc * 1e3:7.1f} ms "
        f"({overhead * 100:+.1f}% vs plain)",
    )
