"""Unit tests for column-major <-> Morton conversion."""

import numpy as np
import pytest

from repro.layout import convert
from repro.layout.convert import (
    ConversionTable,
    _cut_axis,
    conversion_table,
    dense_to_morton,
    morton_to_dense,
)
from repro.layout.matrix import MortonMatrix
from repro.layout.padding import TileRange, Tiling, select_common_tiling
from repro.layout.tiles import iter_tiles


def empty_for(rows, cols, tile_range=TileRange()):
    plan = select_common_tiling((rows, cols), tile_range)
    assert plan is not None
    return MortonMatrix.empty(rows, cols, plan[0], plan[1])


SHAPES = [(1, 1), (7, 9), (16, 16), (64, 64), (65, 63), (150, 150), (513, 260)]


class TestRoundtrip:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_roundtrip_exact(self, rng, shape):
        a = rng.standard_normal(shape)
        m = empty_for(*shape)
        dense_to_morton(a, m)
        assert np.array_equal(morton_to_dense(m), a)

    def test_roundtrip_with_odd_tiles(self, rng):
        # 513 forces tile 33 / depth 4: odd tiles, genuine padding.
        a = rng.standard_normal((513, 513))
        m = empty_for(513, 513)
        dense_to_morton(a, m)
        assert m.tile_r == 33
        assert np.array_equal(morton_to_dense(m), a)

    def test_transpose_fusion(self, rng):
        a = rng.standard_normal((40, 70))
        m = empty_for(70, 40)
        dense_to_morton(a, m, transpose=True)
        assert np.array_equal(morton_to_dense(m), a.T)


class TestPadding:
    def test_straddling_tiles_zero_filled(self, rng):
        a = rng.standard_normal((150, 150))  # pads to 152
        m = empty_for(150, 150)
        m.buf[:] = np.nan  # poison: conversion must overwrite the pad
        dense_to_morton(a, m)
        assert not np.any(np.isnan(m.buf))
        assert m.pad_is_zero()

    def test_full_interior_tiles_not_rezeroed(self, rng):
        # (cheap behavioural check: conversion output is correct even when
        # the destination held garbage)
        a = rng.standard_normal((64, 64))
        m = empty_for(64, 64)
        m.buf[:] = 123.0
        dense_to_morton(a, m)
        assert np.array_equal(morton_to_dense(m), a)


class TestValidation:
    def test_shape_mismatch_rejected(self, rng):
        a = rng.standard_normal((10, 10))
        m = empty_for(11, 10)
        with pytest.raises(ValueError):
            dense_to_morton(a, m)

    def test_transpose_shape_checked(self, rng):
        a = rng.standard_normal((10, 12))
        m = empty_for(10, 12)
        with pytest.raises(ValueError):
            dense_to_morton(a, m, transpose=True)

    def test_non_2d_rejected(self):
        m = empty_for(4, 4)
        with pytest.raises(ValueError):
            dense_to_morton(np.zeros(16), m)

    def test_morton_to_dense_out_shape_checked(self, rng):
        a = rng.standard_normal((10, 10))
        m = empty_for(10, 10)
        dense_to_morton(a, m)
        with pytest.raises(ValueError):
            morton_to_dense(m, out=np.empty((9, 10)))


def table_for(m: MortonMatrix) -> ConversionTable:
    return ConversionTable(m.rows, m.cols, m.tile_r, m.tile_c, m.depth)


def loop_to_morton(a: np.ndarray, m: MortonMatrix) -> np.ndarray:
    """Reference conversion: one 2-D copy per leaf tile, in z-order."""
    buf = np.zeros(m.size)
    tr, tc = m.tile_r, m.tile_c
    for t in iter_tiles(m.depth, tr, tc):
        tile = buf[t.offset : t.offset + tr * tc].reshape(tc, tr).T
        part = a[t.row0 : t.row0 + tr, t.col0 : t.col0 + tc]
        tile[: part.shape[0], : part.shape[1]] = part
    return buf


class TestConversionTable:
    """The strided box copies must agree exactly with a per-tile copy."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_roundtrip_matches_loop(self, rng, shape):
        a = rng.standard_normal(shape)
        m = empty_for(*shape)
        dense_to_morton(a, m, table=table_for(m))
        assert np.array_equal(m.buf, loop_to_morton(a, m))
        assert np.array_equal(morton_to_dense(m, table=table_for(m)), a)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_source_contiguity_dispatch(self, rng, order):
        a = np.asarray(rng.standard_normal((65, 63)), order=order)
        m = empty_for(65, 63)
        dense_to_morton(a, m, table=table_for(m))
        assert np.array_equal(morton_to_dense(m), a)

    def test_strided_source_fallback(self, rng):
        big = rng.standard_normal((130, 126))
        a = big[::2, ::2]  # non-contiguous view
        assert not (a.flags.c_contiguous or a.flags.f_contiguous)
        m = empty_for(65, 63)
        dense_to_morton(a, m, table=table_for(m))
        assert np.array_equal(morton_to_dense(m), a)

    def test_transpose_fusion(self, rng):
        a = rng.standard_normal((40, 70))
        m = empty_for(70, 40)
        dense_to_morton(a, m, transpose=True, table=table_for(m))
        assert np.array_equal(morton_to_dense(m), a.T)

    def test_pad_zeroed(self, rng):
        a = rng.standard_normal((150, 150))  # pads to 152
        m = empty_for(150, 150)
        m.buf[:] = np.nan
        dense_to_morton(a, m, table=table_for(m))
        assert not np.any(np.isnan(m.buf))
        assert m.pad_is_zero()

    def test_zero_pad_false_skips_rezero(self, rng):
        a = rng.standard_normal((150, 150))
        m = empty_for(150, 150)
        dense_to_morton(a, m)  # establishes a zero pad
        dense_to_morton(a * 2, m, zero_pad=False, table=table_for(m))
        assert m.pad_is_zero()
        assert np.array_equal(morton_to_dense(m), a * 2)

    def test_geometry_mismatch_rejected(self, rng):
        a = rng.standard_normal((64, 64))
        m = empty_for(64, 64)
        wrong = ConversionTable(63, 64, m.tile_r, m.tile_c, m.depth)
        with pytest.raises(ValueError):
            dense_to_morton(a, m, table=wrong)
        dense_to_morton(a, m)
        with pytest.raises(ValueError):
            morton_to_dense(m, table=wrong)

    def test_morton_to_dense_out_orders(self, rng):
        a = rng.standard_normal((65, 63))
        m = empty_for(65, 63)
        dense_to_morton(a, m)
        tab = table_for(m)
        for order in ("C", "F"):
            out = np.empty((65, 63), order=order)
            assert np.array_equal(morton_to_dense(m, out=out, table=tab), a)
        strided = np.empty((130, 63))[::2]
        assert np.array_equal(morton_to_dense(m, out=strided, table=tab), a)

    def test_shared_cache_returns_same_table(self):
        t1 = conversion_table(64, 64, 16, 16, 2)
        t2 = conversion_table(64, 64, 16, 16, 2)
        assert t1 is t2
        assert len(t1.boxes) == 1

    def test_tables_are_immutable(self):
        tab = conversion_table(64, 64, 16, 16, 2)
        with pytest.raises(TypeError):
            tab.boxes[0] = None
        region = tab.region(0, 10, 3, 64)
        assert isinstance(region, tuple)
        assert tab.region(0, 10, 3, 64) is region  # cached

    @pytest.mark.parametrize("geom,boxes", [
        ((1024, 1024, 32, 32, 5), 1),
        ((96, 96, 24, 24, 2), 1),
        ((1001, 999, 63, 63, 4), 25),
        ((513, 513, 33, 33, 4), 25),
        ((1024, 1024, 512, 512, 1), 1),
        ((513, 513, 257, 257, 1), 4),
    ])
    def test_box_counts(self, geom, boxes):
        # Each axis splits into dyadic blocks of whole tiles plus one
        # partial tile: at most (depth + 1) segments per axis.
        assert len(conversion_table(*geom).boxes) == boxes

    @pytest.mark.parametrize("geom, cut, boxes", [
        # A cut leaf goes in equal parts of <= ALIASED_PART = 112.
        ((1024, 1024, 512, 512, 1), 0, 10),
        ((1024, 1024, 512, 512, 1), 1, 10),
        ((513, 513, 257, 257, 1), 0, 12),
        ((100, 513, 50, 257, 1), 0, 2),  # leaves within a part stay whole
        ((513, 513, 33, 33, 4), 1, 25),
    ])
    def test_cut_box_counts(self, geom, cut, boxes):
        tab = conversion_table(*geom)
        assert len(tab.region(0, geom[0], 0, geom[1], cut)) == boxes

    @pytest.mark.parametrize("band_bytes", [8, 1000, 1 << 20])
    @pytest.mark.parametrize("tile", [50, 512])  # 512 rows: cut columns
    def test_row_major_beta_epilogue_by_bands(self, rng, monkeypatch,
                                              band_bytes, tile):
        monkeypatch.setattr(convert, "BAND_BYTES", band_bytes)
        a = rng.standard_normal((tile + 37, 2 * tile - 3))
        m = MortonMatrix.zeros(*a.shape, Tiling(a.shape[0], tile, 1),
                               Tiling(a.shape[1], tile, 1))
        dense_to_morton(a, m)
        c = rng.standard_normal(a.shape)
        expect = c * -0.5
        expect += a
        assert np.array_equal(morton_to_dense(m, out=c, beta=-0.5), expect)

    def test_parts_only_where_the_walk_aliases(self):
        # dense -> Morton walks the source down its rows: cut when its row
        # stride is a multiple of ALIAS_BYTES (row-major 2**k widths).
        t1024 = conversion_table(1024, 1024, 512, 512, 1)
        t1000 = conversion_table(1000, 1000, 500, 500, 1)
        c1024 = np.zeros((1024, 1024))
        assert _cut_axis(c1024, t1024, to_morton=True) == 0
        assert _cut_axis(c1024.T, t1024, to_morton=True) is None
        assert _cut_axis(np.zeros((1000, 1000)), t1000, True) is None
        # Morton -> dense walks a row-major destination across the tile's
        # columns: cut when a tile column is a multiple of ALIAS_BYTES.
        assert _cut_axis(c1024, t1024, to_morton=False) == 1
        assert _cut_axis(c1024.T, t1024, to_morton=False) is None
        assert _cut_axis(np.zeros((1000, 1000)), t1000, False) is None

    def test_beta_epilogue_matches_two_pass(self, rng):
        a = rng.standard_normal((65, 63))
        m = empty_for(65, 63)
        dense_to_morton(a, m)
        c = rng.standard_normal((65, 63))
        expect = c.copy()
        expect *= -0.5
        expect += a
        out = morton_to_dense(m, out=c, beta=-0.5)
        assert out is c
        assert np.array_equal(c, expect)
        with pytest.raises(ValueError, match="beta"):
            morton_to_dense(m, beta=2.0)


class TestMortonToDenseOut:
    def test_writes_into_supplied_array(self, rng):
        a = rng.standard_normal((33, 33))
        m = empty_for(33, 33)
        dense_to_morton(a, m)
        out = np.zeros((33, 33), order="F")
        result = morton_to_dense(m, out=out)
        assert result is out
        assert np.array_equal(out, a)

    def test_default_output_fortran_order(self, rng):
        a = rng.standard_normal((20, 30))
        m = empty_for(20, 30)
        dense_to_morton(a, m)
        assert morton_to_dense(m).flags.f_contiguous
