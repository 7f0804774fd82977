"""Stacked batches per chunk size: ``BatchPlan.execute_batch`` at each cap.

Usage (from the root of a checkout)::

    python benchmarks/batch_sweep.py [--sizes 64,96,128] [--batches 32,256]
                                     [--caps 4,8,16,32] [--rounds 5]

For each size ``n`` and batch ``B``, ``B`` pairs of ``n x n`` float64
operands (row-major views into ``(B, n, n)`` stacks, as perfbench's
batch-small draws them) are multiplied in interleaved rounds by:

* ``cap C`` - one :class:`~repro.engine.plan.BatchPlan` of capacity ``C``
  built directly under the default plan key and run over the items in
  chunks of ``C``, as ``multiply_many`` runs them when
  ``BATCH_CAP_MAX`` is ``C`` (the items' ``GemmProblem`` records are
  built once, outside the timed calls);
* ``loop`` - one ``GemmSession.multiply`` per item;
* ``np.matmul`` - one batched call over the two stacks, the reference.

Prints the median time ratio of each over ``np.matmul`` and whether
every cap's results are bit-identical to the loop's.  The BLAS is pinned
to one thread before numpy loads.  The chunk size ``BATCH_CAP_MAX`` is
chosen from this table (EXPERIMENTS.md, *Cache-resident stacked
batches*); run it from a checkout of an older version to compare stack
layouts.
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
from repro.blas.dgemm import GemmProblem  # noqa: E402
from repro.engine import GemmSession  # noqa: E402
from repro.engine.plan import BatchPlan  # noqa: E402


def runners(session, a, b, caps):
    """``{name: call}`` for one ``(B, n, n)`` pair of stacks."""
    n = a.shape[1]
    pairs = list(zip(a, b))
    problems = [GemmProblem.create(x, y) for x, y in pairs]
    key = session._make_key(n, n, n, None, None, None, None, None, False, None)
    calls = {}
    for cap in caps:
        plan = BatchPlan(key, cap, session)

        def stacked(plan=plan, cap=cap):
            outs = []
            for lo in range(0, len(problems), cap):
                chunk = problems[lo : lo + cap]
                outs += plan.execute_batch(chunk, [None] * len(chunk))
            return outs

        calls[f"cap {cap}"] = stacked
    calls["loop"] = lambda: [session.multiply(x, y) for x, y in pairs]
    calls["np.matmul"] = lambda: np.matmul(a, b)
    return calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="64,96,128")
    ap.add_argument("--batches", default="32,256")
    ap.add_argument("--caps", default="4,8,16,32")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    caps = [int(s) for s in args.caps.split(",")]
    rng = np.random.default_rng(0)
    session = GemmSession()
    head = [f"cap {c}" for c in caps] + ["loop"]
    print(f"{'n':>4} {'B':>4}  " + "  ".join(f"{h:>7}" for h in head)
          + "  identical")
    for n in (int(s) for s in args.sizes.split(",")):
        for batch in (int(s) for s in args.batches.split(",")):
            a = rng.standard_normal((batch, n, n))
            b = rng.standard_normal((batch, n, n))
            calls = runners(session, a, b, caps)
            loop = calls["loop"]()
            same = all(
                all(np.array_equal(x, y) for x, y in zip(calls[h](), loop))
                for h in head[:-1]
            )
            names = list(calls)
            times: dict[str, list[float]] = {k: [] for k in names}
            for r in range(args.rounds):
                k = r % len(names)
                for name in names[k:] + names[:k]:
                    t0 = time.perf_counter()
                    calls[name]()
                    times[name].append(time.perf_counter() - t0)
            ratio = {h: median(x / y for x, y in
                               zip(times[h], times["np.matmul"]))
                     for h in head}
            print(f"{n:>4} {batch:>4}  "
                  + "  ".join(f"{ratio[h]:7.2f}" for h in head)
                  + f"  {same!s:>9}", flush=True)
    session.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
