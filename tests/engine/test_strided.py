"""Conversion-free plans: the recursion on strided views of the caller's arrays.

Unpadded plans with BLAS-sized leaves run the unchanged Winograd
recursion on :class:`~repro.layout.strided.StridedMatrix` views.  The
differential suite checks them bit for bit against an explicit Morton
pipeline built from the public functions with the plan's own tilings:
``dense_to_morton``, then ``winograd_multiply``, then ``morton_to_dense``
(transposed operands read through a relabeled view, as the engine's
Morton path reads them).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.modgemm import PhaseTimings
from repro.core.truncation import TruncationPolicy
from repro.core.winograd import winograd_multiply
from repro.core.workspace import Workspace
from repro.engine import GemmSession
from repro.errors import ShapeError
from repro.layout.convert import dense_to_morton, morton_to_dense
from repro.layout.matrix import MortonMatrix
from repro.layout.relabel import transposed_view
from repro.layout.strided import BLAS_SMALL_MNK, StridedMatrix


def morton_pipeline(a, b, c, spec, tilings, memory="classic"):
    """``alpha op(A) op(B) + beta C`` through explicit Morton buffers."""
    tm, tk, tn = tilings
    dt = np.dtype(spec["dtype"])
    ta, tb = spec["trans_a"], spec["trans_b"]
    am = MortonMatrix.zeros(*a.shape, *((tk, tm) if ta else (tm, tk)), dtype=dt)
    bm = MortonMatrix.zeros(*b.shape, *((tn, tk) if tb else (tk, tn)), dtype=dt)
    cm = MortonMatrix.empty(tm.n, tn.n, tm, tn, dtype=dt)
    dense_to_morton(a, am)
    dense_to_morton(b, bm)
    ws = Workspace(tm.depth, tm.tile, tk.tile, tn.tile,
                   with_q=memory == "classic", schedule=memory, dtype=dt)
    winograd_multiply(
        transposed_view(am) if ta else am, transposed_view(bm) if tb else bm,
        cm, workspace=ws, memory=memory, alpha=spec["alpha"],
    )
    if c is None:
        return morton_to_dense(cm)
    return morton_to_dense(cm, out=c.copy(), beta=spec["beta"])


def _layout(x: np.ndarray, how: str) -> np.ndarray:
    """The same values stored row-major, column-major, as a slice of a
    larger array, or with a negative row stride."""
    if how == "F":
        return np.asfortranarray(x)
    if how == "slice":
        big = np.zeros((x.shape[0] + 3, x.shape[1] + 5), dtype=x.dtype)
        big[2 : 2 + x.shape[0], 1 : 1 + x.shape[1]] = x
        return big[2 : 2 + x.shape[0], 1 : 1 + x.shape[1]]
    if how == "reversed":
        return np.ascontiguousarray(x[::-1])[::-1]
    return np.ascontiguousarray(x)


tiles = st.integers(min_value=65, max_value=160)
layouts = st.sampled_from(["C", "F", "slice", "reversed"])


@settings(max_examples=40, deadline=None)
@given(
    tm=tiles, tk=tiles, tn=tiles, seed=st.integers(0, 2**31 - 1),
    ta=st.booleans(), tb=st.booleans(), layout_a=layouts, layout_b=layouts,
    dtype=st.sampled_from(["float64", "float32"]),
    alpha=st.sampled_from([1.0, -1.5]),
    out=st.sampled_from([None, "C0", "F0", "C", "F"]),
    memory=st.sampled_from(["classic", "two_temp"]),
)
def test_strided_matches_morton_pipeline(
    tm, tk, tn, seed, ta, tb, layout_a, layout_b, dtype, alpha, out, memory,
):
    assume(tm * tk * tn > BLAS_SMALL_MNK)
    m, k, n = 2 * tm, 2 * tk, 2 * tn
    rng = np.random.default_rng(seed)
    a = _layout(rng.standard_normal((k, m) if ta else (m, k)).astype(dtype),
                layout_a)
    b = _layout(rng.standard_normal((n, k) if tb else (k, n)).astype(dtype),
                layout_b)
    c = None
    beta = 0.0
    if out is not None:
        c = np.asarray(rng.standard_normal((m, n)).astype(dtype),
                       order=out[0])
        beta = 0.0 if out.endswith("0") else 0.5
    spec = dict(dtype=dtype, trans_a=ta, trans_b=tb, alpha=alpha, beta=beta)
    session = GemmSession()
    plan = session.plan(m, k, n, memory=memory, **spec)
    assert plan._strided and plan.tilings[0].depth == 1
    want = morton_pipeline(a, b, c, spec, plan.tilings, memory)
    got = session.multiply(a, b, c=c, memory=memory, **spec)
    assert np.array_equal(got, want)
    if c is not None:
        assert got is c


@pytest.mark.parametrize("memory", ["classic", "two_temp"])
def test_depth_two_recursion_matches_morton_pipeline(rng, memory):
    # Engine plans run strided at one level; the container itself
    # recurses to any depth with the same bits.
    m, k, n = 4 * 110, 4 * 120, 4 * 100
    policy = TruncationPolicy.pinned_tiling(m, k, n, (110, 120, 100), depth=2)
    tilings = policy.plan(m, k, n)
    a = rng.standard_normal((k, m))
    b = rng.standard_normal((k, n))
    spec = dict(dtype="float64", trans_a=True, trans_b=False, alpha=2.0,
                beta=0.0)
    want = morton_pipeline(a, b, None, spec, tilings, memory)
    got = np.empty((m, n), order="F")
    ws = Workspace(2, 110, 120, 100, with_q=memory == "classic",
                   schedule=memory, orders=("F", "C"))
    winograd_multiply(StridedMatrix(a.T, 2), StridedMatrix(b, 2),
                      StridedMatrix(got, 2), workspace=ws, memory=memory,
                      alpha=2.0)
    assert np.array_equal(got, want)
    assert not GemmSession().plan(m, k, n, policy=policy)._strided


def test_output_aliasing_an_operand_is_still_refused(rng):
    a = rng.standard_normal((300, 300))
    b = rng.standard_normal((300, 300))
    session = GemmSession()
    assert session.plan(300, 300, 300)._strided
    with pytest.raises(ShapeError):
        session.multiply(a, b, c=a)
    with pytest.raises(ShapeError):
        session.multiply(a, b, c=b[:, :])


@pytest.mark.parametrize(
    "dims, opts",
    [
        ((300, 300, 300), {}),
        ((600, 1000, 800), {"trans_b": True, "memory": "two_temp"}),
        ((1000, 1000, 1000), {"dtype": "float32"}),
        ((300, 300, 300), {"policy": TruncationPolicy.pinned_tiling(
            300, 300, 300, (150, 150, 150), depth=1)}),
        ((256, 256, 256), {"policy": "fixed:128"}),
    ],
)
def test_which_plans_run_strided(dims, opts):
    assert GemmSession().plan(*dims, **opts)._strided


@pytest.mark.parametrize(
    "session_opts, dims, opts",
    [
        ({}, (301, 300, 300), {}),  # padded
        ({}, (1200, 1200, 1200), {}),  # depth 2 (T=300)
        ({}, (200, 200, 200), {}),  # 100^3 leaves: the BLAS's small regime
        ({}, (130, 130, 130), {}),  # T=65: small regime
        ({}, (300, 300, 300), {"policy": "dynamic"}),  # paper tiles
        ({}, (256, 256, 256), {"policy": "fixed"}),  # T=32
        ({}, (300, 300, 300), {"memory": "ip_overwrite"}),
        ({}, (300, 300, 300), {"schedule": "tasks:1"}),
        ({}, (300, 300, 300), {"variant": "strassen"}),
        ({"fused_pack": True}, (300, 300, 300), {}),
    ],
)
def test_which_plans_keep_morton(session_opts, dims, opts):
    assert not GemmSession(**session_opts).plan(*dims, **opts)._strided


class TestObservables:
    def test_no_conversion_phase_or_event(self, rng):
        session = GemmSession(trace=True)
        a = rng.standard_normal((300, 300))
        b = rng.standard_normal((300, 300))
        t = PhaseTimings()
        session.multiply(a, b, timings=t)
        assert t.to_morton == 0 and t.compute > 0 and t.from_morton == 0
        kinds = [e.kind for e in session.trace.events()]
        assert "convert" not in kinds and kinds.count("leaf") == 7

    def test_staged_fold_is_the_output_phase(self, rng):
        session = GemmSession()
        a = rng.standard_normal((300, 300))
        b = rng.standard_normal((300, 300))
        c = rng.standard_normal((300, 300))
        t = PhaseTimings()
        want = 0.5 * c + a @ b
        got = session.multiply(a, b, c=c, beta=0.5, timings=t)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert t.to_morton == 0 and t.from_morton > 0

    def test_pooled_bytes_are_scratch_only(self, rng):
        session = GemmSession()
        plan = session.plan(300, 300, 300)
        assert plan.pooled_bytes == 0  # scratch is pooled on first use
        session.multiply(rng.standard_normal((300, 300)),
                         rng.standard_normal((300, 300)))
        assert plan.pooled_bytes == plan.scratch_bytes
        # classic: S, T, P and Q quarter buffers at depth 1.
        assert plan.scratch_bytes == 4 * 150 * 150 * 8
        assert session.stats().bytes_pooled == plan.pooled_bytes

    def test_scratch_follows_operand_order(self, rng):
        session = GemmSession()
        plan = session.plan(300, 300, 300)
        a = rng.standard_normal((300, 300))
        b = rng.standard_normal((300, 300))
        first = session.multiply(a, b)
        assert set(plan._strided_ws) == {("C", "C")}
        second = session.multiply(np.asfortranarray(a), b)
        assert set(plan._strided_ws) == {("C", "C"), ("F", "C")}
        lv = plan._strided_ws[("F", "C")].at(0)
        assert lv.s.buf.flags.f_contiguous and lv.t.buf.flags.c_contiguous
        assert lv.p.buf.flags.f_contiguous
        assert np.array_equal(first, second)
        # Scratch pooled after compile time is in the session's account.
        st = session.stats()
        assert st.scratch_bytes_allocated == plan.scratch_bytes
        assert st.buffers_allocated == plan.buffers_allocated == 8


def test_warm_call_allocates_only_its_result(rng):
    session = GemmSession()
    a = rng.standard_normal((400, 400))
    b = rng.standard_normal((400, 400))
    session.multiply(a, b)
    tracemalloc.start()
    try:
        session.multiply(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The fresh result (1.28 MB) and numpy's ufunc iteration buffers
    # (about 200 KB at any size): no operand copy and no scratch.
    assert 400 * 400 * 8 <= peak < 400 * 400 * 8 + (256 << 10)


def test_strided_container_views():
    x = np.arange(24.0).reshape(4, 6)
    sm = StridedMatrix(x, 1)
    assert (sm.tile_r, sm.tile_c, sm.size) == (2, 3, 24)
    assert sm.quadrants() is sm.quadrants()
    q = sm.quadrants()
    assert np.shares_memory(q[3].buf, x) and q[3].buf[0, 0] == x[2, 3]
    assert q[0].leaf_view() is q[0].buf
    with pytest.raises(ValueError):
        StridedMatrix(np.zeros((5, 6)), 1)
    with pytest.raises(ValueError):
        sm.leaf_view()
