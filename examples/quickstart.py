#!/usr/bin/env python
"""Quickstart: multiply two matrices with MODGEMM.

Demonstrates the one-call API, what the paper's dynamic truncation-point
search decides, and the phase breakdown (conversion vs compute)
the paper's Figure 7 studies.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro

def main() -> None:
    rng = np.random.default_rng(0)
    n = 513  # the paper's favourite pathological size
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))

    # One call, BLAS dgemm semantics, numpy arrays in and out.
    timings = repro.PhaseTimings()
    c = repro.modgemm(a, b, timings=timings)

    err = np.max(np.abs(c - a @ b)) / np.max(np.abs(a @ b))
    print(f"multiplied {n} x {n}: max relative error vs numpy = {err:.2e}")

    # What the paper's rule picks (Section 3.4): tile 33, depth 4, padded
    # 528 — instead of padding 513 all the way to 1024 as fixed T=32 would.
    # (The engine's default applies the same rule to BLAS-sized leaves:
    # tile 257, depth 1; pass policy="dynamic" for the paper's tiling.)
    tiling = repro.select_tiling(n)
    print(
        f"dynamic truncation picked tile {tiling.tile}, depth {tiling.depth} "
        f"-> padded size {tiling.padded} (pad {tiling.pad} per dimension)"
    )
    fixed = repro.TruncationPolicy.fixed(32).plan(n, n, n)[0]
    print(f"a fixed tile of 32 would have padded to {fixed.padded}")

    # Phase breakdown (Figure 7): conversion is a few percent of the total.
    print(
        f"time: {timings.total * 1e3:.1f} ms total, of which "
        f"{timings.convert_fraction * 100:.1f}% layout conversion"
    )

    # Keep operands in Morton order to amortise conversion (Figure 8).
    plan = repro.select_common_tiling((n, n, n))
    tm, tk, tn = plan
    a_mm = repro.MortonMatrix.from_dense(a, tilings=(tm, tk))
    b_mm = repro.MortonMatrix.from_dense(b, tilings=(tk, tn))
    c_mm = repro.modgemm_morton(a_mm, b_mm)
    assert np.allclose(c_mm.to_dense(), c)
    print("conversion-free Morton-to-Morton multiply agrees")

    # Repeated same-geometry multiplies: a session compiles the plan
    # (tiling search, pooled Morton buffers, workspace) once and reuses it.
    session = repro.GemmSession()
    session.multiply(a, b)                      # compiles the plan
    batch = [(rng.standard_normal((n, n)), b) for _ in range(4)]
    outs = session.multiply_many(batch)
    assert all(np.allclose(out, ai @ b) for (ai, _), out in zip(batch, outs))
    s = session.stats()
    print(
        f"session: {s.executes} multiplies, {s.plan_misses} plan compiled, "
        f"{s.plan_hits} cache hits, {s.bytes_pooled / 1e6:.1f} MB pooled"
    )


if __name__ == "__main__":
    main()
