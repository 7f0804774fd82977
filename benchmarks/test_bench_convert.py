"""Conversion-fraction benchmark: fused convert-and-add packing.

At the paper's flagship sizes the dense-to-Morton conversion costs 5-15%
of total time (Figure 7); the fused packing path folds the top-level
Winograd S/T additions into the operand gather and skips converting one
quadrant per operand, cutting the per-operand conversion volume by 25%.
This benchmark measures the *traced* conversion fraction — the sum of
``convert`` event seconds over the run's wall-clock — of a steady-state
multiply with fusion on (``fused_pack=True``; it is opt-in) and off, plus
the separately-attributed ``pack`` seconds.

Emits ``BENCH_convert.json`` at the repo root; hard guards live in
``validate_bench_convert.py`` (run by ``make bench-smoke`` and CI).
Set ``BENCH_CONVERT_QUICK=1`` for a seconds-scale smoke run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.blas import HAVE_NUMBA
from repro.engine import GemmSession

QUICK = os.environ.get("BENCH_CONVERT_QUICK", "") not in ("", "0")
SIZES = [513] if QUICK else [513, 1024]
ROUNDS = 2 if QUICK else 4
#: A deep recursion emits ~8k add events per run; the ring must hold a
#: whole run or the early convert/pack events get evicted before they
#: are counted.
TRACE_CAPACITY = 1 << 17
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_convert.json"


@pytest.fixture(scope="module")
def report():
    data = {
        "benchmark": "convert-fusion",
        "schema_version": 1,
        "quick": QUICK,
        "have_numba": HAVE_NUMBA,
        "host": {"cpu_count": os.cpu_count() or 1},
        "rows": [],
    }
    yield data
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    emit("BENCH_convert.json", f"wrote {OUT_PATH} ({len(data['rows'])} rows)")


def _traced_best(session, fn, rounds=ROUNDS):
    """Best-wall steady-state round: (wall, convert_s, pack_s, packs)."""
    fn()  # warm-up: plan compile, pooled buffers
    best = None
    for _ in range(rounds):
        session.trace.clear()
        session.trace.enable()
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        events = session.trace.events()
        session.trace.disable()
        conv = sum(
            (e.data or {}).get("seconds") or 0.0
            for e in events if e.kind == "convert"
        )
        packs = [e for e in events if e.kind == "pack"]
        pack_s = sum((e.data or {}).get("seconds") or 0.0 for e in packs)
        if best is None or wall < best[0]:
            best = (wall, conv, pack_s, len(packs))
    return best


@pytest.mark.parametrize("n", SIZES)
def test_convert_fraction_grid(square_operands, report, n):
    a, b = square_operands(n)

    # fused_pack=True is the fused leg; fused_pack=False is the two-pass
    # control.
    with GemmSession(fused_pack=True, trace_capacity=TRACE_CAPACITY) as s:
        assert s.plan(n, n, n)._fused
        c_fused = s.multiply(a, b)
        wall_f, conv_f, pack_f, n_packs = _traced_best(
            s, lambda: s.multiply(a, b)
        )
    with GemmSession(fused_pack=False,
                     trace_capacity=TRACE_CAPACITY) as s:
        c_plain = s.multiply(a, b)
        wall_u, conv_u, pack_u, _ = _traced_best(
            s, lambda: s.multiply(a, b)
        )

    # Fusion must never change a single output bit.
    bit_identical = bool(
        np.array_equal(c_fused.view(np.int64), c_plain.view(np.int64))
    )
    assert bit_identical
    assert n_packs == 4 and pack_u == 0.0

    frac_f = conv_f / wall_f
    frac_u = conv_u / wall_u
    row = {
        "n": n,
        "fused_wall_seconds": wall_f,
        "unfused_wall_seconds": wall_u,
        "fused_convert_seconds": conv_f,
        "unfused_convert_seconds": conv_u,
        "fused_pack_seconds": pack_f,
        "fused_convert_fraction": frac_f,
        "unfused_convert_fraction": frac_u,
        "fraction_drop": frac_u - frac_f,
        "bit_identical": bit_identical,
    }
    report["rows"].append(row)
    emit(
        f"convert-fusion n={n}",
        f"fused   {wall_f * 1e3:7.1f} ms wall, convert "
        f"{conv_f * 1e3:6.1f} ms ({frac_f * 100:4.1f}%) + pack "
        f"{pack_f * 1e3:5.1f} ms\n"
        f"unfused {wall_u * 1e3:7.1f} ms wall, convert "
        f"{conv_u * 1e3:6.1f} ms ({frac_u * 100:4.1f}%)\n"
        f"fraction drop {row['fraction_drop'] * 100:+.1f} pp, "
        f"bit-identical={bit_identical}",
    )


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_convert_fraction_numba_leg(square_operands, report):
    # Optional backend leg: same measurement through the registry's
    # numba kernel, recorded (not guarded) for cross-backend comparison.
    n = SIZES[0]
    a, b = square_operands(n)
    with GemmSession(kernel="numba", fused_pack=True,
                     trace_capacity=TRACE_CAPACITY) as s:
        wall_f, conv_f, pack_f, _ = _traced_best(
            s, lambda: s.multiply(a, b)
        )
    report["rows"].append({
        "n": n,
        "kernel": "numba",
        "fused_wall_seconds": wall_f,
        "fused_convert_seconds": conv_f,
        "fused_pack_seconds": pack_f,
        "fused_convert_fraction": conv_f / wall_f,
    })
