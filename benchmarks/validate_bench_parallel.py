"""Dependency-free schema validator for BENCH_parallel.json.

Usage::

    python benchmarks/validate_bench_parallel.py [path]

Exits non-zero (listing every problem found) when the file is missing,
is not JSON, or does not match the schema the scaling benchmark emits.
Run by ``make bench-smoke`` and CI after the benchmark itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

GEMM_MODES = ("sequential", "legacy_7way", "tasks_d1", "tasks_d2")
#: Most plain same-shape copies one conversion direction may cost.
CONVERT_COPY_RATIO = 3.0


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
        data.get("benchmark") == "parallel-scaling",
        "benchmark must be 'parallel-scaling'", problems,
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
        _check(
            isinstance(host.get("pool_workers"), int)
            and host["pool_workers"] >= 1,
            "host.pool_workers must be a positive int", problems,
        )

    gemm = data.get("gemm")
    if _check(
        isinstance(gemm, list) and gemm, "gemm must be a non-empty list",
        problems,
    ):
        for i, row in enumerate(gemm):
            where = f"gemm[{i}]"
            if not _check(isinstance(row, dict), f"{where} must be an object",
                          problems):
                continue
            for field in ("n", "depth", "rounds"):
                _check(
                    isinstance(row.get(field), int) and row[field] >= 1,
                    f"{where}.{field} must be a positive int", problems,
                )
            _check(
                row.get("bit_identical") is True,
                f"{where}.bit_identical must be true", problems,
            )
            secs = row.get("seconds")
            if _check(isinstance(secs, dict), f"{where}.seconds must be an "
                      "object", problems):
                for mode in GEMM_MODES:
                    _check(
                        _number(secs.get(mode)) and secs[mode] > 0,
                        f"{where}.seconds.{mode} must be a positive number",
                        problems,
                    )
            stats = row.get("stats")
            if _check(isinstance(stats, dict), f"{where}.stats must be an "
                      "object", problems):
                for label, st in stats.items():
                    _check(
                        isinstance(st, dict)
                        and isinstance(st.get("tasks_run"), int)
                        and st["tasks_run"] > 0
                        and _number(st.get("worker_utilization"))
                        and 0.0 <= st["worker_utilization"] <= 1.0,
                        f"{where}.stats.{label} needs tasks_run > 0 and "
                        "worker_utilization in [0, 1]", problems,
                    )

    conv = data.get("conversion")
    if _check(
        isinstance(conv, list) and conv,
        "conversion must be a non-empty list", problems,
    ):
        for i, row in enumerate(conv):
            where = f"conversion[{i}]"
            if not _check(isinstance(row, dict), f"{where} must be an object",
                          problems):
                continue
            for field in ("n", "tile", "depth", "boxes"):
                _check(
                    isinstance(row.get(field), int) and row[field] >= 1,
                    f"{where}.{field} must be a positive int", problems,
                )
            _check(
                _number(row.get("copyto_seconds"))
                and row["copyto_seconds"] > 0,
                f"{where}.copyto_seconds must be a positive number", problems,
            )
            for section in ("to_morton", "to_dense"):
                sec = row.get(section)
                if not _check(isinstance(sec, dict),
                              f"{where}.{section} must be an object", problems):
                    continue
                for field in ("box_seconds", "copy_ratio"):
                    _check(
                        _number(sec.get(field)) and sec[field] > 0,
                        f"{where}.{section}.{field} must be a positive number",
                        problems,
                    )
                if _number(sec.get("copy_ratio")):
                    _check(
                        sec["copy_ratio"] <= CONVERT_COPY_RATIO,
                        f"{where}.{section}.copy_ratio must be at most "
                        f"{CONVERT_COPY_RATIO} (a conversion costs at most "
                        "that many plain copies)", problems,
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
        print(f"FAIL: {path} has {len(problems)} schema problem(s):")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(
        f"OK: {path} ({len(data['gemm'])} gemm rows, "
        f"{len(data['conversion'])} conversion rows, "
        f"quick={data['quick']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
