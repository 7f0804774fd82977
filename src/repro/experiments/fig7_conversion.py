"""Figure 7 — Morton conversion time as a percentage of total execution.

The paper converts inputs to Morton order and the output back at the
interface level and measures the cost at roughly 15% of execution time for
small matrices, falling to ~5% for very large ones.  Here
:class:`repro.core.modgemm.PhaseTimings` records the same phase breakdown
under the paper's timing protocol, over the engine's Morton pipeline
(pooled buffers and conversion tables, as a compiled Morton plan runs it).
The pipeline is built explicitly because the engine runs unpadded plans
with leaves above the paper's range on strided views, converting nothing.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable

import numpy as np

from ..analysis.timing import TimingProtocol
from ..core.modgemm import PhaseTimings
from ..core.truncation import TruncationPolicy
from ..core.winograd import winograd_multiply
from ..core.workspace import Workspace
from ..layout.convert import conversion_table, dense_to_morton, morton_to_dense
from ..layout.matrix import MortonMatrix
from .runner import ExperimentResult
from .fig56_perf import default_sizes


def _morton_runner(n: int, policy: TruncationPolicy):
    """A phase-timed ``n x n`` Morton multiply over pooled buffers."""
    tm, tk, tn = policy.plan(n, n, n)
    mms = [MortonMatrix.zeros(n, n, x, y) for x, y in ((tm, tk), (tk, tn))]
    mms.append(MortonMatrix.empty(n, n, tm, tn))
    tables = [conversion_table(n, n, m.tile_r, m.tile_c, m.depth) for m in mms]
    ws = Workspace(tm.depth, tm.tile, tk.tile, tn.tile, with_q=True)

    def run(a: np.ndarray, b: np.ndarray) -> PhaseTimings:
        t0 = perf_counter()
        for x, mm, table in zip((a, b), mms, tables):
            dense_to_morton(x, mm, zero_pad=False, table=table)
        t1 = perf_counter()
        winograd_multiply(mms[0], mms[1], mms[2], workspace=ws)
        t2 = perf_counter()
        morton_to_dense(mms[2], table=tables[2])
        return PhaseTimings(t1 - t0, t2 - t1, perf_counter() - t2)

    return run

__all__ = ["run"]


def run(
    sizes: "Iterable[int] | None" = None,
    protocol: TimingProtocol | None = None,
    seed: int = 0,
    policy: "TruncationPolicy | None" = None,
) -> ExperimentResult:
    """Conversion-time share of modgemm across matrix sizes."""
    from .tuning import HOST_POLICY

    policy = policy or HOST_POLICY
    if sizes is None:
        sizes = default_sizes()
    sizes = [int(n) for n in sizes]
    protocol = protocol or TimingProtocol()
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        a = np.asfortranarray(rng.standard_normal((n, n)))
        b = np.asfortranarray(rng.standard_normal((n, n)))
        # Accumulate phase times over the protocol's best trial by running
        # a fresh breakdown per invocation and keeping the fastest total.
        run = _morton_runner(n, policy)
        best: PhaseTimings | None = None
        for _ in range(protocol.trials):
            for _ in range(protocol.reps(n)):
                t = run(a, b)
                if best is None or t.total < best.total:
                    best = t
        assert best is not None
        rows.append(
            (
                n,
                best.to_morton,
                best.compute,
                best.from_morton,
                best.total,
                100.0 * best.convert_fraction,
            )
        )
    return ExperimentResult(
        name="fig7",
        title="Morton conversion time as % of total execution",
        columns=("n", "t_to_morton", "t_compute", "t_from_morton", "t_total", "convert_pct"),
        rows=rows,
        notes=(
            "Paper: ~15% for small matrices dropping to ~5% for large ones "
            "(the conversion is O(n^2) against O(n^2.8) compute)."
        ),
        chart={"conversion %": ("n", "convert_pct")},
        x_label="matrix size n",
        y_label="% of total",
    )
