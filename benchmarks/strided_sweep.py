"""Strided vs Morton execution of the same Winograd plan, per leaf tile.

Usage (from the root of a checkout)::

    python benchmarks/strided_sweep.py [--tiles 32,48,...] [--rounds 5]

For each tile ``T`` and depth ``d`` in 1, 2 (``n = T * 2**d`` at most
``--max-n``), two ``n x n`` row-major float64 operands are multiplied
three ways, each paired with the others in interleaved rounds:

* ``morton`` - the engine's Morton path from its public building blocks:
  pooled Morton buffers and conversion tables, ``dense_to_morton``,
  ``winograd_multiply`` and ``morton_to_dense``;
* ``strided`` - the same recursion and scratch schedule on
  :class:`~repro.layout.strided.StridedMatrix` views of the operands and
  a fresh column-major result, with no conversion;
* ``np.matmul`` - the reference.

Prints the median time ratios over ``np.matmul`` and whether the two
engine results are bit-identical.  The BLAS is pinned to one thread
before numpy loads.  This is the measurement behind the rule that only
plans whose leaves are larger than the paper's 16..64 range run strided
(EXPERIMENTS.md, *Conversion-free plans*).
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
from repro.core.winograd import winograd_multiply  # noqa: E402
from repro.core.workspace import Workspace  # noqa: E402
from repro.layout.convert import (  # noqa: E402
    conversion_table,
    dense_to_morton,
    morton_to_dense,
)
from repro.layout.matrix import MortonMatrix  # noqa: E402
from repro.layout.padding import Tiling  # noqa: E402
from repro.layout.strided import StridedMatrix  # noqa: E402


def runners(a, b, tile: int, depth: int):
    """``{name: call}`` for one geometry, with every buffer pooled."""
    n = a.shape[0]
    t = Tiling(n=n, tile=tile, depth=depth)
    am, bm = MortonMatrix.zeros(n, n, t, t), MortonMatrix.zeros(n, n, t, t)
    cm = MortonMatrix.empty(n, n, t, t)
    table = conversion_table(n, n, tile, tile, depth)
    ws_m = Workspace(depth, tile, tile, tile, with_q=True)
    ws_s = Workspace(depth, tile, tile, tile, with_q=True, orders=("C", "C"))

    def morton():
        dense_to_morton(a, am, zero_pad=False, table=table)
        dense_to_morton(b, bm, zero_pad=False, table=table)
        winograd_multiply(am, bm, cm, workspace=ws_m)
        return morton_to_dense(cm, table=table)

    def strided():
        out = np.empty((n, n), order="F")
        winograd_multiply(StridedMatrix(a, depth), StridedMatrix(b, depth),
                          StridedMatrix(out, depth), workspace=ws_s)
        return out

    return {"morton": morton, "strided": strided,
            "matmul": lambda: np.matmul(a, b)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiles", default="32,48,64,80,96,128,192,256,384,512")
    ap.add_argument("--max-n", type=int, default=1024)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(0)
    print(f"{'d':>2} {'T':>4} {'n':>5}  morton/np  strided/np  "
          "strided/morton  identical")
    for depth in (1, 2):
        for tile in (int(s) for s in args.tiles.split(",")):
            n = tile << depth
            if n > args.max_n:
                continue
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            calls = runners(a, b, tile, depth)
            same = np.array_equal(calls["morton"](), calls["strided"]())
            names = list(calls)
            times: dict[str, list[float]] = {k: [] for k in names}
            for r in range(args.rounds):
                for name in names[r % 3:] + names[: r % 3]:
                    t0 = time.perf_counter()
                    calls[name]()
                    times[name].append(time.perf_counter() - t0)
            ratio = {k: median(x / y for x, y in zip(v, times["matmul"]))
                     for k, v in times.items()}
            rel = median(x / y for x, y in
                         zip(times["strided"], times["morton"]))
            print(f"{depth:>2} {tile:>4} {n:>5}  {ratio['morton']:9.2f}  "
                  f"{ratio['strided']:10.2f}  {rel:14.2f}  {same!s:>9}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
