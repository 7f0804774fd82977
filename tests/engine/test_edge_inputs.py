"""Zero-dimension GEMMs, complex and non-finite operands at the public
entry points.

A zero ``m``, ``k`` or ``n`` returns what ``np.matmul`` (and BLAS) give
without compiling a plan; complex A, B or C raise ``DTypeError`` instead
of silently dropping the imaginary part; an Inf in an operand raises no
floating-point warning, as with ``np.matmul``.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

import repro
from repro import modgemm
from repro.engine import GemmSession
from repro.errors import BatchItemError, DTypeError, ReproError

ZERO_DIMS = [(0, 5, 4), (3, 0, 4), (3, 5, 0), (0, 0, 0), (0, 5, 0)]


def _operands(rng, m, k, n, trans_a, trans_b):
    a = rng.standard_normal((k, m) if trans_a else (m, k))
    b = rng.standard_normal((n, k) if trans_b else (k, n))
    return a, b


def _reference(a, b, c0, alpha, beta, trans_a, trans_b):
    prod = np.matmul(a.T if trans_a else a, b.T if trans_b else b)
    if c0 is None:
        return alpha * prod
    return alpha * prod + beta * c0


@pytest.mark.parametrize("dims", ZERO_DIMS)
@pytest.mark.parametrize(
    "trans_a,trans_b", list(itertools.product([False, True], repeat=2))
)
@pytest.mark.parametrize("with_c,beta", [(False, 0.0), (True, 0.0), (True, 0.5)])
def test_zero_dimension_matches_matmul(rng, dims, trans_a, trans_b, with_c, beta):
    m, k, n = dims
    a, b = _operands(rng, m, k, n, trans_a, trans_b)
    c0 = rng.standard_normal((m, n)) if with_c else None
    ref = _reference(a, b, c0, 2.0, beta, trans_a, trans_b)
    session = GemmSession()
    for call in (
        lambda c: session.multiply(a, b, c=c, alpha=2.0, beta=beta,
                                   trans_a=trans_a, trans_b=trans_b),
        lambda c: modgemm(a, b, c=c, alpha=2.0, beta=beta,
                          trans_a=trans_a, trans_b=trans_b),
        lambda c: session.multiply_many(
            [(a, b) if c is None else (a, b, c)], alpha=2.0, beta=beta,
            trans_a=trans_a, trans_b=trans_b,
        )[0],
    ):
        c = None if c0 is None else c0.copy()
        out = call(c)
        assert out.shape == (m, n)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, ref)
        if c is not None:
            assert out is c  # C is updated in place, as BLAS does
    stats = session.stats()
    assert stats.plan_misses == 0 and stats.plans_cached == 0


def test_k_zero_beta_zero_clears_c(rng):
    # BLAS never reads C when beta == 0: even NaN entries become zero.
    c = np.full((3, 4), np.nan)
    out = GemmSession().multiply(np.ones((3, 0)), np.ones((0, 4)), c=c)
    assert out is c
    np.testing.assert_array_equal(c, np.zeros((3, 4)))


def test_k_zero_float32(rng):
    out = GemmSession().multiply(
        np.ones((3, 0)), np.ones((0, 4)), dtype=np.float32
    )
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, np.zeros((3, 4)))


def test_multiply_many_mixes_empty_and_stacked_items(rng):
    session = GemmSession()
    full = [(rng.standard_normal((40, 40)), rng.standard_normal((40, 40)))
            for _ in range(3)]
    c = rng.standard_normal((40, 5))
    items = [full[0], (np.ones((40, 0)), np.ones((0, 5)), c), full[1],
             (np.ones((0, 40)), rng.standard_normal((40, 7))), full[2]]
    outs = session.multiply_many(items, beta=0.0)
    for i in (0, 2, 4):
        np.testing.assert_array_equal(outs[i], session.multiply(*items[i]))
    assert outs[1] is c
    np.testing.assert_array_equal(c, np.zeros((40, 5)))
    assert outs[3].shape == (0, 7)
    assert session.stats().batched_executes == 1


class TestComplexOperands:
    @pytest.mark.parametrize("which", ["a", "b", "c"])
    def test_complex_operand_raises(self, rng, which):
        ops = {
            "a": rng.standard_normal((6, 5)),
            "b": rng.standard_normal((5, 4)),
            "c": rng.standard_normal((6, 4)),
        }
        ops[which] = ops[which] + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(DTypeError, match="complex"):
                GemmSession().multiply(ops["a"], ops["b"], c=ops["c"])
            with pytest.raises(DTypeError, match="complex"):
                modgemm(ops["a"], ops["b"], c=ops["c"])

    def test_multiply_many_reports_the_item(self, rng):
        a = rng.standard_normal((8, 8))
        items = [(a, a), (a, a), (a.astype(np.complex128), a)]
        with pytest.raises(BatchItemError) as info:
            GemmSession().multiply_many(items)
        assert info.value.index == 2
        assert isinstance(info.value.__cause__, DTypeError)

    def test_unsupported_dtype_is_a_dtype_error(self, rng):
        a = rng.standard_normal((8, 8))
        with pytest.raises(DTypeError, match="dtype"):
            GemmSession().multiply(a, a, dtype=np.int32)

    def test_hierarchy(self):
        assert issubclass(DTypeError, ReproError)
        assert issubclass(DTypeError, ValueError)
        assert repro.DTypeError is DTypeError


# 200^2 runs the Morton path (T=100), 256^2 a strided plan; both stack
# in multiply_many.
@pytest.mark.parametrize("n", [200, 256])
def test_inf_operand_raises_no_warning(rng, n):
    a = rng.standard_normal((n, n))
    a[3, 5] = np.inf
    b = rng.standard_normal((n, n))
    session = GemmSession()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = np.matmul(a, b)
        out = session.multiply(a, b)
        outs = session.multiply_many([(a, b), (a, b)])
    assert session.stats().batched_executes == 1
    # The non-finite pattern itself still differs from BLAS's (the
    # Winograd sums spread the Inf into a second block of rows).
    assert not np.isfinite(ref[3]).any()
    assert not np.isfinite(out[3]).any()
    for got in outs:
        np.testing.assert_array_equal(got, out)
