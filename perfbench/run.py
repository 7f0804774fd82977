"""End-to-end GEMM benchmark of the engine against ``np.matmul``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload square-deep --seed 1 --seconds 20 \\
        --trace 0

A closed loop: one caller in one process issues one public call at a time
and waits for it.  The BLAS is pinned to one thread before numpy loads.
Each engine call is paired with ``np.matmul`` on the same operands, and
the order inside a pair alternates from round to round.  Every engine
result is checked against a float64 ``np.matmul`` reference within the
depth-aware Strassen-Winograd error bounds of
:func:`perfbench.workloads.check`.

``--trace 0`` reports the end-to-end metrics:

* ``blas_ratio`` - median over pairs of engine time / ``np.matmul`` time
  (per geometry, then the geometric mean);
* ``setup_s`` - median over fresh processes of the time from constructing
  a ``GemmSession`` until each geometry has run its two calibrating calls;
* ``mem_ratio`` - tracemalloc peak from session construction through the
  first warm call, over the bytes of A, B and C (a fresh process);
* ``rel_err`` - ||C - R||_F / ||R||_F against the float64 reference
  (the worst call of each geometry, then the geometric mean);
* ``ok_frac`` - calls that returned within the error bounds, over calls
  attempted.

The median wall time of one warm call, ``call_ms_p50`` (per geometry,
then the mean over geometries), is printed with the diagnostics but not
reported as a metric.  On a shared 2-vCPU host the machine's speed moves
between runs: ``np.matmul`` at 1024^2 took 30-41 ms and the engine call
270-450 ms over ten runs, so a raw time spreads far beyond any useful
bound, while the ratio of the interleaved pairs moves much less.

``--trace 1`` runs the outside-in layer trace of :mod:`perfbench.layers`
and reports the per-layer metrics; it writes the spans as Chrome
trace-event JSON under ``perfbench/out/``.  The last line of standard
output is always the result object; host facts and the untimed tail
diagnostics are printed on the lines before it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import subprocess
import sys
import time
import traceback
from statistics import geometric_mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh processes whose median set-up time is ``setup_s``.
SETUP_PROCS = 5
#: Fresh processes whose median plan compile time is ``engine.plan_ms``.
PLAN_PROCS = 3
#: Calls per geometry that finish lazy set-up: the first compiles the
#: plan, and the first two run the conversion calibration trials.
SETUP_CALLS = 2
#: Fewest measured rounds, whatever ``--seconds`` says.
MIN_ROUNDS = 3


def pin_blas() -> None:
    """Pin every BLAS the host may use to one thread; the child processes
    inherit it.  Takes effect only before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def import_paths() -> None:
    """Put the checkout's ``src`` (the engine) and root on ``sys.path``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no repro package under {SRC}\n")
        raise SystemExit(2)
    for p in (ROOT, SRC):
        if p not in sys.path:
            sys.path.insert(0, p)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs the same workload shapes scaled down")
    ap.add_argument("--child", choices=("setup", "mem"),
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ------------------------------------------------------------------ children
# Set-up and memory are measured in fresh processes: module-level caches
# (conversion tables, staging chunks) would otherwise be warm.


def child_setup(args) -> dict:
    from repro.engine import GemmSession

    from perfbench import workloads as W

    operands = W.make_operands(W.geometries(args.workload, args.scale),
                               args.seed)
    gc.collect()
    t0 = time.perf_counter()
    session = GemmSession()
    for ops in operands:
        for _ in range(SETUP_CALLS):
            ops.reset()
            W.engine_call(session, ops)
    setup = time.perf_counter() - t0
    # Compile time of each plan alone, in a session of its own (the
    # set-up above already warmed the module-level caches, as a second
    # session of a long-lived process would find them).
    fresh = GemmSession()
    plan_s = []
    for ops in operands:
        g = ops.geom
        t0 = time.perf_counter()
        fresh.plan(g.m, g.k, g.n, **g.spec())
        plan_s.append(time.perf_counter() - t0)
    return {"setup_s": setup, "plan_ms": 1e3 * sum(plan_s) / len(plan_s)}


def child_mem(args) -> dict:
    from repro.analysis import measure_peak
    from repro.engine import GemmSession

    from perfbench import workloads as W

    operands = W.make_operands(W.geometries(args.workload, args.scale),
                               args.seed)
    gc.collect()

    def first_use():
        session = GemmSession()
        for ops in operands:
            for _ in range(SETUP_CALLS + 1):
                ops.reset()
                W.engine_call(session, ops)
        return session

    _, peak = measure_peak(first_use)
    data = 0
    for ops in operands:
        g = ops.geom
        data += g.items * (g.m * g.k + g.k * g.n + g.m * g.n) * \
            ops.a.itemsize
    return {"mem_ratio": peak / data, "peak_bytes": peak, "data_bytes": data}


def run_children(args, kind: str, count: int) -> list[dict]:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{kind} child exited {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------- end to end


def tail(xs) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it.

    Nearest-rank: ``p`` is the largest integer with ``ceil(p n / 100) <=
    n - 10``.  ``None`` when there are fewer than eleven samples.
    """
    n = len(xs)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return {"p": int(p), "value": float(sorted(xs)[rank - 1]), "n": n}


class Tally:
    """Attempted / failed engine calls and each geometry's worst error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rel_err: dict[str, float] = {}

    def call(self, session, ops, tilings, spans=None):
        """One checked engine call; returns ``(seconds, result)``.

        With ``spans``, the call alone (not its check) is an
        ``engine.call`` span.
        """
        from perfbench import workloads as W

        self.attempted += 1
        ops.reset()
        span = (spans.span("engine.call", geometry=ops.geom.label)
                if spans is not None else contextlib.nullcontext())
        try:
            with span:
                t0 = time.perf_counter()
                result = W.engine_call(session, ops)
                dt = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - a failing call is a counted result
            traceback.print_exc()
            self.failed += 1
            return None, None
        ok, err = W.check(ops, result, tilings)
        if not ok:
            sys.stderr.write(
                f"perfbench: {ops.geom.label} outside the error bounds "
                f"(rel_err {err:.3e})\n"
            )
            self.failed += 1
        label = ops.geom.label
        self.rel_err[label] = max(self.rel_err.get(label, 0.0), err)
        return dt, result


def end_to_end(args) -> tuple[dict, dict, Tally]:
    from repro.engine import GemmSession

    from perfbench import workloads as W

    setups = run_children(args, "setup", SETUP_PROCS)
    mem = run_children(args, "mem", 1)[0]

    operands = W.make_operands(W.geometries(args.workload, args.scale),
                               args.seed)
    session = GemmSession()
    tally = Tally()
    tilings = []
    for ops in operands:
        g = ops.geom
        tilings.append(session.plan(g.m, g.k, g.n, **g.spec()).tilings)
        for _ in range(SETUP_CALLS + 1):  # set-up, then one warm call
            tally.call(session, ops, tilings[-1])
    eng = [[] for _ in operands]
    ref = [[] for _ in operands]
    gc.collect()
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for i, ops in enumerate(operands):
            first = (rounds + i) % 2 == 0  # ping-pong the pair's order
            if first:
                te, _ = tally.call(session, ops, tilings[i])
            ops.reset()
            t0 = time.perf_counter()
            W.reference_call(ops)
            tr = time.perf_counter() - t0
            if not first:
                te, _ = tally.call(session, ops, tilings[i])
            if te is not None:
                eng[i].append(te)
                ref[i].append(tr)
        rounds += 1

    ok = tally.attempted - tally.failed
    metrics = {
        "blas_ratio": (geometric_mean(
            median([e / r for e, r in zip(es, rs)])
            for es, rs in zip(eng, ref)
        ), "ratio"),
        "setup_s": (median([s["setup_s"] for s in setups]), "s"),
        "mem_ratio": (mem["mem_ratio"], "ratio"),
        "rel_err": (geometric_mean(tally.rel_err.values()), "ratio"),
        "ok_frac": (ok / tally.attempted, "ratio"),
    }
    diag = {
        "rounds": rounds,
        "geometries": [o.geom.label for o in operands],
        "call_ms_p50": 1e3 * sum(median(e) for e in eng) / len(eng),
        "call_ms_tail": [tail([1e3 * x for x in e]) for e in eng],
        "matmul_ms_p50": [1e3 * median(r) for r in ref],
        "matmul_ms_tail": [tail([1e3 * x for x in r]) for r in ref],
        "blas_ratio_tail": [tail([e / r for e, r in zip(es, rs)])
                            for es, rs in zip(eng, ref)],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "peak_bytes": mem["peak_bytes"],
        "data_bytes": mem["data_bytes"],
    }
    return metrics, diag, tally


# ------------------------------------------------------------------- layers



def layer_trace(args) -> tuple[dict, dict, Tally, bool]:
    import numpy as np

    from repro.engine import GemmSession

    from perfbench import layers as L
    from perfbench import workloads as W

    setups = run_children(args, "setup", PLAN_PROCS)
    operands = W.make_operands(W.geometries(args.workload, args.scale),
                               args.seed)
    session = GemmSession()
    tally = Tally()
    plans = []
    for ops in operands:
        g = ops.geom
        plans.append(session.plan(g.m, g.k, g.n, **g.spec()))
        for _ in range(SETUP_CALLS + 1):
            tally.call(session, ops, plans[-1].tilings)
    st = session.stats()
    hit_ratio = st.plan_hits / (st.plan_hits + st.plan_misses)
    # The pipelines follow the choices each plan made during set-up.
    pipes = [L.Pipeline(ops, L.engine_plan(session, plan))
             for ops, plan in zip(operands, plans)]

    tracks = {
        name: L.Spans(args.workload, name)
        for name in ("session", "pipeline", "counted")
    }
    backends = {
        "pipeline": [L.NumpyOps(p.kernel) for p in pipes],
        "counted": [L.CountingOps(p.kernel) for p in pipes],
    }
    identical = True

    def run_one(kind: str, i: int):
        """One call on one track; returns a private copy of its result."""
        ops, pipe, sp = operands[i], pipes[i], tracks[kind]
        label = ops.geom.label
        if kind == "session":
            _, out = tally.call(session, ops, pipe.tilings, spans=sp)
        else:
            ops.reset()
            with sp.span("bench.pipeline", geometry=label):
                out = pipe.run(backends[kind][i], sp)
        return None if out is None else W.as_array(out).copy()

    gc.collect()
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    kinds = list(tracks)
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for i in range(len(operands)):
            order = kinds[rounds % 3:] + kinds[: rounds % 3]
            results = {kind: run_one(kind, i) for kind in order}
            ref = results["session"]
            for kind in ("pipeline", "counted"):
                if ref is None or not np.array_equal(ref, results[kind]):
                    sys.stderr.write(
                        f"perfbench: {kind} result of {operands[i].geom.label}"
                        " is not bit-identical to the session's\n"
                    )
                    identical = False
        rounds += 1

    # One call per geometry on a tracing session: the event volume the
    # engine's own ring buffer must hold.
    with GemmSession(trace=True) as traced:
        for ops in operands:
            ops.reset()
            W.engine_call(traced, ops)
        dropped = traced.trace.dropped
        events = dropped + len(traced.trace.events())

    index = {ops.geom.label: i for i, ops in enumerate(operands)}

    def calls(track: str) -> list[list[dict]]:
        """Per geometry, one ``{"wall": s, span name: [spans]}`` per call."""
        out: list[list[dict]] = [[] for _ in operands]
        by_id: dict[int, dict] = {}
        for r in tracks[track].records:
            if r["parent"] is None:
                by_id[r["id"]] = {"wall": r["end"] - r["start"]}
                out[index[r["args"]["geometry"]]].append(by_id[r["id"]])
            else:
                by_id[r["parent"]].setdefault(r["name"], []).append(r)
        return out

    def total(per_geom, name: str, value=lambda r: r["end"] - r["start"]):
        """Per geometry, per call: ``value`` summed over spans ``name``."""
        return [[sum(value(r) for r in c[name]) for c in g] for g in per_geom]

    def mean_p50(per_geom) -> float:
        """Mean over geometries of the median, in milliseconds."""
        return 1e3 * sum(median(x) for x in per_geom) / len(per_geom)

    plain, counted = calls("pipeline"), calls("counted")
    walls = {name: [[c["wall"] for c in g] for g in calls(name)]
             for name in tracks}
    add_s = total(counted, "core.recursion", lambda r: r["args"]["add_s"])
    leaf_s = total(counted, "core.recursion", lambda r: r["args"]["leaf_s"])
    rec_s = total(counted, "core.recursion")
    # Per-call timings, seconds, per geometry: each metric is the mean over
    # geometries of their medians.
    timings = {
        "layout.convert_in_ms": total(plain, "layout.convert_in"),
        "layout.convert_out_ms": total(plain, "layout.convert_out"),
        "core.recursion_ms": total(plain, "core.recursion"),
        "core.add_ms": add_s,
        "core.dispatch_ms": [[r - a - b for r, a, b in zip(*xs)]
                             for xs in zip(rec_s, add_s, leaf_s)],
        "blas.leaf_ms": leaf_s,
    }
    # Counts of one call per geometry (every counted call repeats them).
    first = {
        key: sum(int(v[0]) for v in total(
            counted, "core.recursion", lambda r, k=key: r["args"][k]))
        for key in ("add_passes", "add_bytes", "leaf_calls", "leaf_flops")
    }
    add_p50 = sum(median(x) for x in add_s)
    leaf_p50 = sum(median(x) for x in leaf_s)

    metrics = {
        "engine.plan_ms": (median([s["plan_ms"] for s in setups]), "ms"),
        "engine.plan_hit_ratio": (hit_ratio, "ratio"),
        "engine.overhead_ms": (
            mean_p50(walls["session"]) - mean_p50(walls["pipeline"]), "ms"),
        "layout.convert_mb": (
            sum(p.convert_bytes for p in pipes) / 1e6, "MB"),
        "layout.pad_ratio": (
            sum(p.padded_elems for p in pipes)
            / sum(p.logical_elems for p in pipes), "ratio"),
        "core.add_passes": (first["add_passes"], "count"),
        "core.add_gbps": (first["add_bytes"] / add_p50 / 1e9, "GB/s"),
        "core.scratch_mb": (sum(p.scratch_bytes for p in pipes) / 1e6, "MB"),
        "blas.leaf_calls": (first["leaf_calls"], "count"),
        "blas.leaf_gflops": (first["leaf_flops"] / leaf_p50 / 1e9, "GFLOP/s"),
        "observe.events": (events, "count"),
        "observe.dropped": (dropped, "count"),
        "trace.overhead_ms": (
            mean_p50(walls["counted"]) - mean_p50(walls["pipeline"]), "ms"),
    }
    metrics.update({k: (mean_p50(v), "ms") for k, v in timings.items()})
    n_calls = sum(len(g) for g in counted)
    self_s = L.self_times(tracks["counted"].records)
    path = os.path.join(HERE, "out",
                        f"trace-{args.workload}-seed{args.seed}.json")
    L.chrome_trace(list(tracks.values()), path)
    diag = {
        "rounds": rounds,
        "geometries": [o.geom.label for o in operands],
        "self_ms_per_call": {k: 1e3 * v / n_calls for k, v in self_s.items()},
        "tails_ms": {
            name: [tail([1e3 * x for x in g]) for g in per]
            for name, per in [*walls.items(), *timings.items()]
        },
        "chrome_trace": os.path.relpath(path, ROOT),
    }
    return metrics, diag, tally, identical


# --------------------------------------------------------------------- main


def host_info(seed: int) -> dict:
    import platform

    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def _blas_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports, when it is one."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    import_paths()
    from perfbench import workloads as W

    W.geometries(args.workload, args.scale)  # validates the name
    if args.child:
        fn = child_setup if args.child == "setup" else child_mem
        print(json.dumps(fn(args)))
        return 0
    print(json.dumps({"host": host_info(args.seed)}))
    if args.trace:
        metrics, diag, tally, identical = layer_trace(args)
    else:
        metrics, diag, tally = end_to_end(args)
        identical = True
    print(json.dumps({"diagnostics": diag}))
    result = {
        "correct": tally.failed == 0 and identical,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
