"""Dependency-free schema validator for BENCH_batch.json.

Usage::

    python benchmarks/validate_bench_batch.py [path]

Exits non-zero (listing every problem found) when the file is missing,
is not JSON, does not match the schema the stacked-batch benchmark
emits, or violates the batched-dispatch guarantees:

* every row must be bit-identical across the three dispatch paths,
* every row must have run at least one stacked :class:`BatchPlan`
  execution (``batched_executes >= 1``),
* every stacked execution must be one recursion over the whole stack:
  ``7**depth`` batched leaf products per execution, not that many per
  item,
* the batched path must reach at least 0.1x the items/sec of one
  ``np.matmul`` per item for every 96x96 cell with batch >= 32.

Run by ``make bench-smoke`` and CI after the benchmark itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

#: The throughput guard: batched items/sec over per-item ``np.matmul``
#: items/sec at this size, for batches at least this large.  Full grid
#: under the default one-level plan (T=48): 0.17-0.52 over four runs on
#: a 2-vCPU host; the guard sits 40% below the lowest for host noise.
GUARD_N = 96
GUARD_BATCH = 32
GUARD_VS_MATMUL = 0.1

RATE_FIELDS = (
    "batched_items_per_sec", "threaded_items_per_sec", "loop_items_per_sec",
    "matmul_items_per_sec",
    "batched_gflops", "threaded_gflops", "loop_gflops",
)


def _check(cond: bool, message: str, problems: list) -> bool:
    if not cond:
        problems.append(message)
    return cond


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate(data, problems: list) -> None:
    _check(isinstance(data, dict), "top level must be an object", problems)
    if not isinstance(data, dict):
        return
    _check(
        data.get("benchmark") == "stacked-batch",
        "benchmark must be 'stacked-batch'", problems,
    )
    _check(
        isinstance(data.get("schema_version"), int),
        "schema_version must be an int", problems,
    )
    _check(isinstance(data.get("quick"), bool), "quick must be a bool", problems)

    host = data.get("host")
    if _check(isinstance(host, dict), "host must be an object", problems):
        _check(
            isinstance(host.get("cpu_count"), int) and host["cpu_count"] >= 1,
            "host.cpu_count must be a positive int", problems,
        )

    rows = data.get("rows")
    if not _check(
        isinstance(rows, list) and rows, "rows must be a non-empty list",
        problems,
    ):
        return

    guard_cells = 0
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not _check(isinstance(row, dict), f"{where} must be an object",
                      problems):
            continue
        for field in ("n", "batch"):
            _check(
                isinstance(row.get(field), int) and row[field] >= 1,
                f"{where}.{field} must be a positive int", problems,
            )
        for field in RATE_FIELDS:
            _check(
                _number(row.get(field)) and row[field] > 0,
                f"{where}.{field} must be a positive number", problems,
            )
        for field in ("speedup_vs_threaded", "speedup_vs_loop",
                      "speedup_vs_matmul"):
            _check(
                _number(row.get(field)) and row[field] > 0,
                f"{where}.{field} must be a positive number", problems,
            )
        _check(
            row.get("bit_identical") is True,
            f"{where}.bit_identical must be true", problems,
        )
        _check(
            isinstance(row.get("batched_executes"), int)
            and row["batched_executes"] >= 1,
            f"{where}.batched_executes must be a positive int "
            "(the stacked path must actually have run)", problems,
        )
        fields = ("depth", "stack_executes", "stack_leaf_calls")
        if _check(
            all(isinstance(row.get(f), int) for f in fields)
            and row["stack_executes"] >= 1,
            f"{where}.{'/'.join(fields)} must be ints, with "
            "stack_executes >= 1", problems,
        ):
            per_exec = 7 ** row["depth"]
            _check(
                row["stack_leaf_calls"] == per_exec * row["stack_executes"],
                f"{where}: {row['stack_leaf_calls']} batched leaf calls over "
                f"{row['stack_executes']} stacked execution(s); one recursion "
                f"per stack issues {per_exec} each", problems,
            )

        # ---- the throughput guard ------------------------------------
        if row.get("n") == GUARD_N and isinstance(row.get("batch"), int) \
                and row["batch"] >= GUARD_BATCH:
            guard_cells += 1
            speedup = row.get("speedup_vs_matmul")
            if _number(speedup):
                _check(
                    speedup >= GUARD_VS_MATMUL,
                    f"{where}: batched path is only {speedup:.2f}x the "
                    f"items/sec of per-item np.matmul for n={GUARD_N} "
                    f"batch={row['batch']} (need >= {GUARD_VS_MATMUL}x)",
                    problems,
                )

    _check(
        guard_cells >= 1,
        f"no guard cell present (need at least one n={GUARD_N} row with "
        f"batch >= {GUARD_BATCH})", problems,
    )


def main(argv: list) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    problems: list = []
    if not path.is_file():
        print(f"FAIL: {path} does not exist (run the benchmark first)")
        return 1
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        print(f"FAIL: {path} is not valid JSON: {exc}")
        return 1
    validate(data, problems)
    if problems:
        print(f"FAIL: {path} has {len(problems)} problem(s):")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(
        f"OK: {path} ({len(data['rows'])} rows, quick={data['quick']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
