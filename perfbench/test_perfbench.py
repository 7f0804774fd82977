"""The benchmark's own tests: every workload at its tiny scale.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

from perfbench import run

run.import_paths()

import numpy as np  # noqa: E402

from repro.engine import GemmSession  # noqa: E402

from perfbench import layers as L  # noqa: E402
from perfbench import workloads as W  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _args(workload: str, seed: int, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=seed, seconds=0.05,
                              trace=trace, scale="tiny", child=None)


_cache: dict = {}


def measured(workload: str, seed: int, trace: int, rep: int = 0):
    """One tiny in-process run, memoised across tests."""
    key = (workload, seed, trace, rep)
    if key not in _cache:
        args = _args(workload, seed, trace)
        if trace:
            metrics, _, tally, identical = run.layer_trace(args)
        else:
            metrics, _, tally = run.end_to_end(args)
            identical = True
        _cache[key] = (metrics, tally, identical)
    return _cache[key]


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(W.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_and_unit_present(workload, trace):
    metrics, tally, identical = measured(workload, 1, trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: u for k, (_, u) in metrics.items()
    }
    assert tally.attempted > 0 and tally.failed == 0 and identical
    for value, _ in metrics.values():
        assert np.isfinite(value)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_pipeline_is_bit_identical_to_session(workload):
    operands = W.make_operands(W.geometries(workload, "tiny"), 5)
    session = GemmSession()
    for ops in operands:
        g = ops.geom
        for _ in range(run.SETUP_CALLS):  # the plan settles its choices
            ops.reset()
            W.engine_call(session, ops)
        plan = L.engine_plan(session, session.plan(g.m, g.k, g.n, **g.spec()))
        pipe = L.Pipeline(ops, plan)
        ops.reset()
        want = W.as_array(W.engine_call(session, ops)).copy()
        for backend in (L.NumpyOps(pipe.kernel), L.CountingOps(pipe.kernel)):
            ops.reset()
            got = W.as_array(pipe.run(backend, L.Spans(workload, "t")))
            assert np.array_equal(want, got), g.label


@pytest.mark.parametrize("workload", NAMES)
def test_exact_counts_repeat_with_the_same_seed(workload):
    first, _, _ = measured(workload, 1, 1)
    again, _, _ = measured(workload, 1, 1, rep=1)
    for name in ("core.add_passes", "blas.leaf_calls", "layout.pad_ratio"):
        assert first[name] == again[name], name
    assert first["core.add_passes"][0] > 0 and first["blas.leaf_calls"][0] > 0
    e2e, _, _ = measured(workload, 1, 0)
    e2e_again, _, _ = measured(workload, 1, 0, rep=1)
    assert e2e["rel_err"] == e2e_again["rel_err"]
    assert e2e["rel_err"][0] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_changed_seed_changes_inputs_not_metric_names(workload):
    geoms = W.geometries(workload, "tiny")
    one, two = W.make_operands(geoms, 1), W.make_operands(geoms, 2)
    assert all(not np.array_equal(x.a, y.a) for x, y in zip(one, two))
    again = W.make_operands(geoms, 1)
    assert all(np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
               for x, y in zip(one, again))
    for trace in (0, 1):
        assert measured(workload, 1, trace)[0].keys() == \
            measured(workload, 2, trace)[0].keys()


def test_check_rejects_a_wrong_result():
    ops = W.make_operands(W.geometries("square-deep", "tiny"), 1)[0]
    g = ops.geom
    tilings = GemmSession().plan(g.m, g.k, g.n).tilings
    good = W.reference_call(ops)
    assert W.check(ops, good, tilings)[0]
    bad = good.copy()
    bad[3, 4] += 1.0
    assert not W.check(ops, bad, tilings)[0]


def test_check_rejects_a_wrong_float32_result_at_full_shape():
    # At 1000^2 float32 the worst-case bound is above every entry of the
    # result; the normwise bound must still reject these.
    g = W.geometries("gemm-odd")[1]
    assert g.dtype == "float32" and g.m == 1000
    ops = W.make_operands([g], 1)[0]
    session = GemmSession()
    tilings = session.plan(g.m, g.k, g.n, **g.spec()).tilings
    assert W.check(ops, W.engine_call(session, ops), tilings)[0]
    good = W.reference_call(ops)
    assert W.check(ops, good, tilings)[0]
    assert not W.check(ops, np.zeros_like(good), tilings)[0]
    flipped = good.copy()
    flipped[:500, :500] *= -1
    assert not W.check(ops, flipped, tilings)[0]


def test_self_times_subtract_children():
    recs = [
        {"id": 0, "parent": None, "name": "bench.pipeline", "start": 0.0,
         "end": 10.0, "args": {}},
        {"id": 1, "parent": 0, "name": "layout.convert_in", "start": 0.0,
         "end": 2.0, "args": {}},
        {"id": 2, "parent": 0, "name": "core.recursion", "start": 2.0,
         "end": 9.0, "args": {"add_s": 3.0, "leaf_s": 1.5}},
    ]
    got = L.self_times(recs)
    assert got == pytest.approx({"bench": 1.0, "layout": 2.0, "core": 2.5,
                                 "core.add": 3.0, "blas": 1.5})
