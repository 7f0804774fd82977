"""Conversion sweep: whole-leaf against cut box copies, per memory layout.

Usage (from the root of a checkout)::

    python benchmarks/convert_sweep.py [--rounds 15]

``layout.convert`` cuts the leaf a box copy walks into parts of at most
``ALIASED_PART`` only when the source's stride along that walk is a
multiple of ``ALIAS_BYTES`` (``_cut_axis``).  For each case below — two
dense operands converted into the default plan's Morton geometry, or a
``beta`` epilogue into a caller's C — this times the conversion
with the cut forced off and forced on, each after a 1024^2 ``np.matmul``
that evicts the caches, and prints the medians (ms) next to the choice
the rule makes.  The BLAS is pinned to one thread before numpy loads
(EXPERIMENTS.md, *BLAS-sized leaves*).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from statistics import median

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)
from repro.core.truncation import DEFAULT_POLICY  # noqa: E402
from repro.layout import convert  # noqa: E402
from repro.layout.matrix import MortonMatrix  # noqa: E402

#: (label, n, layout of the dense arrays, direction: "in" to Morton,
#: "out" a beta epilogue, "copy" a beta = 0 one)
CASES = (
    ("A, B row-major", 1024, "C", "in"),
    ("A, B row-major", 1000, "C", "in"),
    ("A, B row-major", 513, "C", "in"),
    ("A, B column-major", 1024, "F", "in"),
    ("beta into row-major C", 1024, "C", "out"),
    ("beta into row-major C", 513, "C", "out"),
    ("copy into row-major C", 1024, "C", "copy"),
    ("copy into row-major C", 1000, "C", "copy"),
)


def case_runner(n: int, layout: str, direction: str):
    """A zero-argument callable running one conversion case, plus its
    dense array and table (for the rule's choice)."""
    rng = np.random.default_rng(0)
    tm = DEFAULT_POLICY.plan(n, n, n)[0]
    table = convert.conversion_table(n, n, tm.tile, tm.tile, tm.depth)
    order = "C" if layout == "C" else "F"
    a, b = (np.asarray(rng.standard_normal((n, n)), order=order)
            for _ in range(2))
    ma, mb = (MortonMatrix.zeros(n, n, tm, tm) for _ in range(2))
    if direction == "in":
        def run():
            convert.dense_to_morton(a, ma, zero_pad=False, table=table)
            convert.dense_to_morton(b, mb, zero_pad=False, table=table)
        return run, a, table
    convert.dense_to_morton(b, ma, table=table)
    beta = 0.5 if direction == "out" else 0.0

    def run():
        convert.morton_to_dense(ma, out=a, table=table, beta=beta)
    return run, a, table


def timed(run, rounds: int, cut) -> float:
    """Median ms of ``run`` with the cut forced to ``cut``."""
    rule = convert._cut_axis
    convert._cut_axis = lambda *args, **kw: cut
    flush = np.random.default_rng(1).standard_normal((1024, 1024))
    try:
        run()
        times = []
        for _ in range(rounds):
            np.matmul(flush, flush)
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
    finally:
        convert._cut_axis = rule
    return median(times) * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)
    print("| case | n | rule | whole leaves (ms) | parts (ms) |")
    print("|---|---|---|---|---|")
    for label, n, layout, direction in CASES:
        run, dense, table = case_runner(n, layout, direction)
        axis = 0 if direction == "in" else 1
        pick = convert._cut_axis(dense, table, to_morton=direction == "in")
        whole = timed(run, args.rounds, None)
        parts = timed(run, args.rounds, axis)
        print(f"| {label} | {n} | {'parts' if pick is not None else 'whole'}"
              f" | {whole:.2f} | {parts:.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
