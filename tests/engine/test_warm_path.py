"""A warm execution builds no Morton container objects.

Every plan's pooled buffers grow their quadrant, leaf, transpose and
relabel views on the first execution; later executions must reuse them.
Constructions are counted through the containers' initialisers, so the
guard is deterministic (no wall clock).
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.engine import GemmSession
from repro.layout.matrix import BatchMortonMatrix, MortonMatrix
from repro.layout.padding import Tiling
from repro.layout.relabel import TransposedView, relabel_scratch, transposed_view


@pytest.fixture
def constructions(monkeypatch) -> Counter:
    """Count every MortonMatrix, BatchMortonMatrix and TransposedView built."""
    counts: Counter = Counter()
    for cls, name in (
        (MortonMatrix, "__post_init__"),
        (BatchMortonMatrix, "__post_init__"),
        (TransposedView, "__init__"),
    ):
        def counted(self, *args, _orig=getattr(cls, name), _name=cls.__name__):
            counts[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return counts


#: name -> (session options, (m, k, n), multiply options)
CASES = {
    "classic": ({}, (200, 200, 200), {"memory": "classic"}),
    "two_temp": ({}, (200, 200, 200), {"memory": "two_temp"}),
    "ip_overwrite": ({}, (200, 200, 200), {"memory": "ip_overwrite"}),
    "fused_pack": ({"fused_pack": True}, (200, 200, 200), {}),
    "trans_a": ({}, (199, 201, 203), {"trans_a": True}),
    "trans_b": ({}, (120, 200, 160), {"trans_b": True, "memory": "two_temp"}),
    "beta": ({}, (199, 201, 203), {"beta": 0.5, "alpha": 2.0}),
    "float32": ({}, (200, 200, 200), {"dtype": np.float32}),
    "strassen": ({}, (200, 200, 200), {"variant": "strassen", "trans_a": True}),
    # One leaf workspace (x1 worker), so which workspace a leaf task
    # draws from the pool cannot vary between runs.
    "tasks": ({}, (199, 201, 203), {"schedule": "tasks:2x1", "trans_a": True}),
}


def _operands(rng, dims, opts):
    m, k, n = dims
    a = rng.standard_normal((k, m) if opts.get("trans_a") else (m, k))
    b = rng.standard_normal((n, k) if opts.get("trans_b") else (k, n))
    c = rng.standard_normal((m, n)) if opts.get("beta") else None
    return a, b, c


@pytest.mark.parametrize("case", sorted(CASES))
def test_warm_multiply_constructs_nothing(case, constructions, rng):
    session_opts, dims, opts = CASES[case]
    session = GemmSession(**session_opts)
    a, b, c = _operands(rng, dims, opts)

    def call():
        return session.multiply(
            a, b, c=None if c is None else c.copy(), **opts
        )

    cold = call()
    assert sum(constructions.values()) > 0  # the counter sees the build
    constructions.clear()
    warm = call()
    assert sum(constructions.values()) == 0, dict(constructions)
    np.testing.assert_array_equal(warm, cold)


@pytest.mark.parametrize("opts", [{}, {"trans_a": True, "schedule": "tasks:1"}])
def test_warm_multiply_many_constructs_nothing(opts, constructions, rng):
    session = GemmSession()
    pairs = [
        (rng.standard_normal((96, 96)), rng.standard_normal((96, 96)))
        for _ in range(6)
    ]
    cold = session.multiply_many(pairs, **opts)
    assert session.stats().batched_executes == 1
    constructions.clear()
    warm = session.multiply_many(pairs, **opts)
    assert sum(constructions.values()) == 0, dict(constructions)
    for x, y in zip(warm, cold):
        np.testing.assert_array_equal(x, y)


def _mm(rows=40, cols=40, tile_r=10, tile_c=10, depth=2):
    return MortonMatrix.zeros(
        rows, cols, Tiling(n=rows, tile=tile_r, depth=depth),
        Tiling(n=cols, tile=tile_c, depth=depth),
    )


class TestMemoisedViews:
    def test_quadrants_return_the_same_tuple(self):
        mm = _mm()
        assert mm.quadrants() is mm.quadrants()
        assert mm.quadrant(1, 0) is mm.quadrants()[2]
        leaf = mm.quadrants()[0].quadrants()[3]
        assert leaf.leaf_view() is leaf.leaf_view()

    def test_batch_quadrants_return_the_same_tuple(self):
        t = Tiling(n=40, tile=10, depth=2)
        stack = BatchMortonMatrix.zeros(3, 40, 40, t, t)
        assert stack.quadrants() is stack.quadrants()
        assert stack.size == 1600

    def test_transpose_of_transpose_is_the_base(self):
        mm = _mm()
        tv = transposed_view(mm)
        assert transposed_view(tv) is mm
        assert transposed_view(mm) is tv  # one wrapper per base
        assert tv.quadrants() is tv.quadrants()
        assert tv.quadrant(0, 1) is transposed_view(mm.quadrant(1, 0))

    def test_relabel_is_cached_per_scratch(self):
        mm = _mm(40, 20, tile_r=20, tile_c=10, depth=1)
        r = relabel_scratch(mm)
        assert relabel_scratch(mm) is r
        assert (r.rows, r.cols, r.tile_r, r.tile_c) == (40, 20, 20, 10)
        assert r.buf is mm.buf

    @pytest.mark.parametrize(
        "name", ["buf", "rows", "cols", "tile_r", "tile_c", "depth", "size"]
    )
    def test_geometry_is_immutable(self, name):
        mm = _mm()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mm, name, getattr(mm, name))
        t = Tiling(n=40, tile=10, depth=2)
        stack = BatchMortonMatrix.zeros(2, 40, 40, t, t)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(stack, name, getattr(stack, name))

    def test_view_tree_holds_no_reference_cycle(self):
        # A dropped plan buffer is freed by reference counting alone, even
        # after its transposed and relabeled trees were built.
        mm = _mm()
        tv = transposed_view(mm)
        for q in tv.quadrants():
            for leaf in q.quadrants():
                leaf.leaf_view()
        relabel_scratch(mm).quadrants()
        freed = weakref.ref(mm.buf)
        gc.disable()
        try:
            del mm, tv, q, leaf
            assert freed() is None
        finally:
            gc.enable()

    def test_racing_first_use_builds_equivalent_trees(self):
        # Write-once caches take no lock: threads racing on a first use may
        # each build a view, but every view they get covers the same memory.
        mm = _mm(64, 64, tile_r=4, tile_c=4, depth=4)
        leaves: list = []

        def descend():
            found, stack = [], [transposed_view(mm)]
            while stack:
                x = stack.pop()
                if x.depth == 0:
                    found.append(x.leaf_view().__array_interface__["data"][0])
                else:
                    stack.extend(x.quadrants())
            leaves.append(found)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=descend) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(leaves) == 8
        assert all(found == leaves[0] for found in leaves)
        assert len(set(leaves[0])) == 4**4
        tv = transposed_view(mm)
        assert tv.quadrants() is tv.quadrants()
