"""Unit tests for the truncation policies."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.truncation import DEFAULT_POLICY, LEAF_MAX, TruncationPolicy

FIG2 = Path(__file__).resolve().parents[2] / "results" / "fig2.txt"


class TestDynamic:
    def test_default_range(self):
        p = TruncationPolicy.dynamic()
        assert p.tile_range is not None
        assert (p.tile_range.min_tile, p.tile_range.max_tile) == (16, 64)
        assert p.fixed_tile is None

    def test_plan_square(self):
        plan = TruncationPolicy.dynamic().plan(513, 513, 513)
        assert plan is not None
        assert plan[0].padded == 528

    def test_plan_returns_none_for_extreme_ratio(self):
        assert TruncationPolicy.dynamic().plan(2048, 256, 256) is None

    def test_label(self):
        assert TruncationPolicy.dynamic(8, 32).label == "dynamic[8,32]"


class TestFixed:
    def test_paper_513_blowup(self):
        # The motivating pathology: fixed T=32 pads 513 to 1024.
        plan = TruncationPolicy.fixed(32).plan(513, 513, 513)
        assert plan is not None
        assert plan[0].padded == 1024

    def test_power_of_two_is_tight(self):
        plan = TruncationPolicy.fixed(32).plan(512, 512, 512)
        assert plan[0].padded == 512
        assert plan[0].depth == 4

    def test_small_matrices_single_leaf(self):
        plan = TruncationPolicy.fixed(32).plan(20, 30, 10)
        assert all(t.depth == 0 for t in plan)

    def test_common_depth_forced_by_largest(self):
        plan = TruncationPolicy.fixed(32).plan(1024, 64, 64)
        assert plan is not None
        depths = {t.depth for t in plan}
        assert depths == {5}
        assert plan[1].padded == 1024  # small dims over-padded: the cost of fixed T

    def test_never_none(self):
        assert TruncationPolicy.fixed(32).plan(2048, 256, 256) is not None

    def test_rejects_bad_tile(self):
        with pytest.raises(ValueError):
            TruncationPolicy.fixed(0)

    def test_label(self):
        assert TruncationPolicy.fixed(64).label == "fixed[64]"


def test_default_policy_is_paper_range():
    assert DEFAULT_POLICY.tile_range is not None
    assert DEFAULT_POLICY.tile_range.min_tile == 16


class TestDynamicReproducesPaper:
    def test_505_to_512_truncate_at_32(self):
        # Section 4.2: sizes 505..512 pad to 512 with tile size 32.
        for n in range(505, 513):
            plan = TruncationPolicy.dynamic().plan(n, n, n)
            assert all((t.tile, t.padded) == (32, 512) for t in plan)

    def test_committed_fig2_curve(self):
        rows = []
        for line in FIG2.read_text().splitlines():
            cells = line.split()
            if len(cells) == 5 and all(c.isdigit() for c in cells):
                rows.append(tuple(map(int, cells)))
        assert len(rows) == 1100 - 16 + 1
        policy = TruncationPolicy.dynamic()
        for n, _, padded, _, tile in rows:
            t = policy.plan(n, n, n)[0]
            assert (t.padded, t.tile) == (padded, tile), n


def _in_range_depths(dims, lo=16, hi=LEAF_MAX):
    """Depths >= 1 at which every dimension's minimal tile is in range."""
    return [
        d for d in range(1, 14)
        if all(lo <= -(-x >> d) <= hi for x in dims)
    ]


class TestShallowDefault:
    def test_default_is_shallow(self):
        assert DEFAULT_POLICY == TruncationPolicy.shallow()
        assert TruncationPolicy.coerce(None) is DEFAULT_POLICY
        assert TruncationPolicy.coerce("shallow") == DEFAULT_POLICY
        assert TruncationPolicy.coerce(f"shallow:16,{LEAF_MAX}") == DEFAULT_POLICY
        assert DEFAULT_POLICY.label == f"shallow[16,{LEAF_MAX}]"
        assert TruncationPolicy.coerce("shallow:8,64").tile_range.max_tile == 64

    @settings(max_examples=300, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 5000)] * 3))
    def test_shallowest_in_range_depth(self, dims):
        plan = DEFAULT_POLICY.plan(*dims)
        depths = _in_range_depths(dims)
        if not depths:
            assert plan is None or plan[0].depth == 0
            return
        assert plan is not None
        assert {t.depth for t in plan} == {depths[0]}
        assert all(16 <= t.tile <= LEAF_MAX for t in plan)
        paper = TruncationPolicy.dynamic().plan(*dims)
        if paper is not None and paper[0].depth >= 1:
            assert sum(t.pad for t in plan) <= sum(t.pad for t in paper)

    @pytest.mark.parametrize("dims", [
        # perfbench workloads at full scale ...
        (1024, 1024, 1024), (999, 1001, 1003), (1000, 1000, 1000),
        (600, 1000, 800), (96, 96, 96),
        # ... and at tiny scale.
        (200, 200, 200), (199, 201, 203), (120, 200, 160), (48, 48, 48),
    ])
    def test_benchmark_geometries_keep_a_level(self, dims):
        plan = DEFAULT_POLICY.plan(*dims)
        assert plan is not None and plan[0].depth >= 1
