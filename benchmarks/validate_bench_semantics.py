"""Dependency-free schema validator for BENCH_semantics.json.

Usage::

    python benchmarks/validate_bench_semantics.py [path]

Exits non-zero (listing every problem found) when the file is missing,
is not JSON, does not match the schema the GEMM-semantics benchmark
emits, or violates the operation-semantics guarantees:

* the transpose path must add **zero** extra Morton conversions over
  the non-transposed run in every row (the quadrant-swap relabel is
  copy-free),
* a row whose plan runs on strided views (``"strided": true``) must
  convert nothing at all; every other row must count its conversions,
* the beta accumulate must cost less than 10% wall-clock overhead over
  the plain multiply in every row,
* at least one row must cover the paper's flagship size (n >= 513).

Run by ``make bench-smoke`` and CI after the benchmark itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_semantics.json"

#: Acceptance guards: zero extra conversions, bounded accumulate cost.
GUARD_MIN_N = 513
GUARD_ACC_OVERHEAD = 0.10

SECONDS_FIELDS = ("plain_seconds", "trans_seconds", "accumulate_seconds")


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
        data.get("benchmark") == "gemm-semantics",
        "benchmark must be 'gemm-semantics'", problems,
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

    flagship_rows = 0
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not _check(isinstance(row, dict), f"{where} must be an object",
                      problems):
            continue
        _check(
            isinstance(row.get("n"), int) and row["n"] >= 1,
            f"{where}.n must be a positive int", problems,
        )
        for field in SECONDS_FIELDS + ("plain_gflops",):
            _check(
                _number(row.get(field)) and row[field] > 0,
                f"{where}.{field} must be a positive number", problems,
            )
        strided = row.get("strided")
        _check(isinstance(strided, bool), f"{where}.strided must be a bool",
               problems)
        for field in ("convert_count_plain", "convert_count_trans"):
            if strided is True:
                _check(
                    row.get(field) == 0,
                    f"{where}.{field} must be 0 on a strided plan", problems,
                )
            else:
                _check(
                    isinstance(row.get(field), int) and row[field] >= 1,
                    f"{where}.{field} must be a positive int", problems,
                )
        _check(
            _number(row.get("accumulate_overhead")),
            f"{where}.accumulate_overhead must be a number", problems,
        )

        # ---- the semantics guards ------------------------------------
        _check(
            row.get("convert_extra") == 0,
            f"{where}: transposed run added {row.get('convert_extra')} "
            "Morton conversions (the relabel must be copy-free: need 0)",
            problems,
        )
        overhead = row.get("accumulate_overhead")
        if _number(overhead):
            _check(
                overhead < GUARD_ACC_OVERHEAD,
                f"{where}: beta accumulate costs {overhead * 100:.1f}% over "
                f"the plain multiply at n={row.get('n')} "
                f"(need < {GUARD_ACC_OVERHEAD * 100:.0f}%)", problems,
            )
        if isinstance(row.get("n"), int) and row["n"] >= GUARD_MIN_N:
            flagship_rows += 1

    _check(
        flagship_rows >= 1,
        f"no flagship row present (need at least one n >= {GUARD_MIN_N})",
        problems,
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
