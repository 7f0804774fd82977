"""Leaf-tile sweep: engine time over ``np.matmul`` time at fixed tiles.

Usage (from the root of a checkout)::

    python benchmarks/leaf_sweep.py [--sizes 1024,2048] [--rounds 5]

For each square size ``n`` and each tile ``T = n / 2, n / 4, ...`` down
to 32 (at least one Winograd level, no padding), a session multiplies
two ``n x n`` float64 operands with the pinned tiling ``(T, log2(n / T))``;
every engine call is paired with ``np.matmul`` on the same operands, the
order alternating from round to round.  Prints the median over rounds of
the per-pair time ratio.  The BLAS is pinned to one thread before numpy
loads.  ``repro.core.truncation.LEAF_MAX`` comes from this sweep
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
from repro.core.truncation import TruncationPolicy  # noqa: E402
from repro.engine import GemmSession  # noqa: E402


def ratio(session, a, b, policy, rounds: int) -> float:
    """Median over interleaved pairs of engine time / ``np.matmul`` time."""
    session.multiply(a, b, policy=policy)  # compile + warm
    ratios = []
    for r in range(rounds):
        times = {}
        order = ("engine", "blas") if r % 2 == 0 else ("blas", "engine")
        for side in order:
            t0 = time.perf_counter()
            if side == "engine":
                session.multiply(a, b, policy=policy)
            else:
                np.matmul(a, b)
            times[side] = time.perf_counter() - t0
        ratios.append(times["engine"] / times["blas"])
    return median(ratios)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="1024,2048")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(0)
    for n in (int(s) for s in args.sizes.split(",")):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        cells = []
        tile, depth = n // 2, 1
        while tile >= 32 and tile * 2**depth == n:
            policy = TruncationPolicy.pinned_tiling(
                n, n, n, (tile, tile, tile), depth
            )
            with GemmSession() as s:
                cells.append((tile, ratio(s, a, b, policy, args.rounds)))
            tile, depth = tile // 2, depth + 1
        print(f"n={n}: " + "  ".join(
            f"T={t}: {r:.2f}" for t, r in sorted(cells)
        ), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
