"""Unit tests for the dgemm interface contract."""

import numpy as np
import pytest

from repro.blas.dgemm import GemmProblem, OpKind, dgemm_reference
from repro.errors import DTypeError


class TestOpKind:
    def test_parse_aliases(self):
        assert OpKind.parse("n") is OpKind.NOTRANS
        assert OpKind.parse("N") is OpKind.NOTRANS
        assert OpKind.parse("t") is OpKind.TRANS
        assert OpKind.parse("T") is OpKind.TRANS
        assert OpKind.parse("c") is OpKind.TRANS  # real matrices
        assert OpKind.parse(OpKind.TRANS) is OpKind.TRANS

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            OpKind.parse("x")


class TestGemmProblem:
    def test_dimensions_notrans(self, rng):
        p = GemmProblem.create(rng.standard_normal((3, 4)), rng.standard_normal((4, 5)))
        assert (p.m, p.k, p.n) == (3, 4, 5)

    def test_dimensions_trans(self, rng):
        p = GemmProblem.create(
            rng.standard_normal((4, 3)),
            rng.standard_normal((5, 4)),
            op_a="t",
            op_b="t",
        )
        assert (p.m, p.k, p.n) == (3, 4, 5)

    def test_inner_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            GemmProblem.create(
                rng.standard_normal((3, 4)), rng.standard_normal((3, 5))
            )

    def test_c_shape_checked(self, rng):
        with pytest.raises(ValueError):
            GemmProblem.create(
                rng.standard_normal((3, 4)),
                rng.standard_normal((4, 5)),
                c=np.zeros((3, 4)),
            )

    def test_beta_without_c_rejected(self, rng):
        with pytest.raises(ValueError):
            GemmProblem.create(
                rng.standard_normal((3, 4)),
                rng.standard_normal((4, 5)),
                beta=1.0,
            )

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            GemmProblem.create(np.zeros(3), np.zeros((3, 3)))

    @pytest.mark.skipif(
        np.dtype(np.longdouble).itemsize <= 8,
        reason="longdouble is float64 on this platform",
    )
    def test_longdouble_operand_refused(self, rng):
        a = rng.standard_normal((4, 4)).astype(np.longdouble)
        with pytest.raises(DTypeError, match="longdouble|float128"):
            GemmProblem.create(a, np.eye(4))
        with pytest.raises(DTypeError):
            GemmProblem.create(np.eye(4), a, dtype=np.float32)

    def test_object_operand_refused(self):
        a = np.eye(4, dtype=object)
        with pytest.raises(DTypeError, match="object"):
            GemmProblem.create(a, np.eye(4))
        with pytest.raises(DTypeError):
            GemmProblem.create([[1.0, 2.0], [3.0, None]], np.eye(2))

    def test_op_views_are_views(self, rng):
        a = rng.standard_normal((3, 4))
        p = GemmProblem.create(a, rng.standard_normal((3, 5)), op_a="t")
        assert p.op_a_view.base is a or p.op_a_view is a


class TestApplyScaling:
    def test_beta_zero_alpha_one_is_identity(self, rng):
        p = GemmProblem.create(rng.standard_normal((2, 3)), rng.standard_normal((3, 2)))
        d = rng.standard_normal((2, 2))
        assert p.apply_scaling(d, None) is d

    def test_beta_zero_alpha_scales_in_place(self, rng):
        p = GemmProblem.create(
            rng.standard_normal((2, 3)), rng.standard_normal((3, 2)), alpha=3.0
        )
        d = np.ones((2, 2))
        out = p.apply_scaling(d, None)
        assert np.all(out == 3.0)

    def test_general_alpha_beta(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        c0 = rng.standard_normal((2, 2))
        p = GemmProblem.create(a, b, alpha=2.0, beta=-1.5, c=c0)
        d = a @ b
        c = c0.copy()
        out = p.apply_scaling(d.copy(), c)
        assert np.allclose(out, 2.0 * d - 1.5 * c0)


class TestReference:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((7, 8))
        b = rng.standard_normal((8, 9))
        assert np.allclose(dgemm_reference(a, b), a @ b)

    def test_full_contract(self, rng):
        a = rng.standard_normal((8, 7))
        b = rng.standard_normal((9, 8))
        c = rng.standard_normal((7, 9))
        out = dgemm_reference(a, b, c=c, alpha=0.5, beta=2.0, op_a="t", op_b="t")
        assert np.allclose(out, 0.5 * (a.T @ b.T) + 2.0 * c)

    def test_does_not_mutate_c(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 3))
        c0 = c.copy()
        dgemm_reference(a, b, c=c, beta=1.0)
        assert np.array_equal(c, c0)
