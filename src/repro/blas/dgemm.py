"""The Level-3 BLAS ``dgemm`` contract (paper Section 2.1).

Every multiplication entry point in this package — MODGEMM and both
baselines — computes ``C <- alpha * op(A) . op(B) + beta * C`` where
``op(X)`` is ``X`` or ``X^T``.  :class:`GemmProblem` normalises and
validates one such call; :func:`dgemm_reference` is the numpy ground truth
the test-suite measures everything against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import DTypeError, PlanError, ShapeError

__all__ = ["OpKind", "GemmProblem", "dgemm_reference"]


class OpKind(str, enum.Enum):
    """The BLAS ``TRANSA``/``TRANSB`` parameter (conjugation is moot for reals)."""

    NOTRANS = "n"
    TRANS = "t"

    @classmethod
    def parse(cls, value: "OpKind | str") -> "OpKind":
        if isinstance(value, OpKind):
            return value
        v = str(value).lower()
        if v in ("n", "notrans", "no"):
            return cls.NOTRANS
        if v in ("t", "trans", "c"):
            return cls.TRANS
        raise ValueError(f"unknown op {value!r}; expected 'n' or 't'")


@dataclass(frozen=True)
class GemmProblem:
    """A validated ``C <- alpha*op(A).op(B) + beta*C`` problem instance.

    ``m, k, n`` are the logical GEMM dimensions: ``op(A)`` is ``m x k``,
    ``op(B)`` is ``k x n``, ``C`` is ``m x n``.
    """

    a: np.ndarray
    b: np.ndarray
    op_a: OpKind
    op_b: OpKind
    alpha: float
    beta: float
    m: int
    k: int
    n: int

    @classmethod
    def create(
        cls,
        a: np.ndarray,
        b: np.ndarray,
        op_a: "OpKind | str" = OpKind.NOTRANS,
        op_b: "OpKind | str" = OpKind.NOTRANS,
        alpha: float = 1.0,
        beta: float = 0.0,
        c: np.ndarray | None = None,
        dtype=None,
        trans_a: bool | None = None,
        trans_b: bool | None = None,
    ) -> "GemmProblem":
        """Validate one dgemm call.

        ``dtype`` selects the computation precision — ``float64`` (the
        default, the paper's regime) or ``float32``; operands are cast on
        the way in, so mixed inputs work at the cost of a copy.
        ``trans_a``/``trans_b`` are boolean aliases for the BLAS op
        spellings; when given they win over ``op_a``/``op_b``.
        """
        dt = np.dtype(np.float64 if dtype is None else dtype)
        if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise DTypeError(
                f"unsupported dtype {dt}; dgemm supports float64 and float32"
            )
        if np.iscomplexobj(a) or np.iscomplexobj(b) or np.iscomplexobj(c):
            raise DTypeError(
                "complex operands are not supported: casting to "
                f"{dt} would drop the imaginary part"
            )
        a = np.asarray(a, dtype=dt)
        b = np.asarray(b, dtype=dt)
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError(
                f"dgemm operands must be 2-D, got ndims {a.ndim} and {b.ndim}"
            )
        if trans_a is not None:
            op_a = OpKind.TRANS if trans_a else OpKind.NOTRANS
        if trans_b is not None:
            op_b = OpKind.TRANS if trans_b else OpKind.NOTRANS
        op_a = OpKind.parse(op_a)
        op_b = OpKind.parse(op_b)
        m, k = a.shape if op_a is OpKind.NOTRANS else a.shape[::-1]
        kb, n = b.shape if op_b is OpKind.NOTRANS else b.shape[::-1]
        if k != kb:
            raise ShapeError(
                f"inner dimensions disagree: op(A) is {m}x{k}, op(B) is {kb}x{n}"
            )
        if c is not None and c.shape != (m, n):
            raise ShapeError(f"C has shape {c.shape}, expected {(m, n)}")
        if c is not None and (
            np.may_share_memory(c, a) or np.may_share_memory(c, b)
        ):
            # The engine writes C while A/B are still live (staged U-adds,
            # Morton conversions); an aliased output would corrupt them.
            raise ShapeError(
                "the C operand must not share memory with A or B"
            )
        if beta != 0.0 and c is None:
            raise ValueError("beta != 0 requires an existing C operand")
        if beta != 0.0 and c is not None and c.dtype != dt:
            raise PlanError(
                f"C dtype {c.dtype} != computation dtype {dt}: a beta "
                "accumulate would silently upcast and break bit-identity; "
                "cast C explicitly"
            )
        return cls(
            a=a, b=b, op_a=op_a, op_b=op_b,
            alpha=float(alpha), beta=float(beta), m=m, k=k, n=n,
        )

    @property
    def empty(self) -> bool:
        """True when ``m``, ``k`` or ``n`` is 0 (nothing to multiply)."""
        return 0 in (self.m, self.k, self.n)

    def empty_result(self, c: np.ndarray | None) -> np.ndarray:
        """What BLAS returns for an :attr:`empty` problem: ``beta * C``
        (C zeroed when ``beta == 0``), or a zero ``(m, n)`` array when no
        C is given — an empty one when ``m`` or ``n`` is 0."""
        if c is None:
            return np.zeros((self.m, self.n), dtype=self.a.dtype, order="F")
        if self.beta == 0.0:
            c[...] = 0.0
        else:
            c *= self.beta
        return c

    @property
    def op_a_view(self) -> np.ndarray:
        """``op(A)`` as a (possibly transposed) view — no copy."""
        return self.a if self.op_a is OpKind.NOTRANS else self.a.T

    @property
    def op_b_view(self) -> np.ndarray:
        return self.b if self.op_b is OpKind.NOTRANS else self.b.T

    def apply_scaling(self, d: np.ndarray, c: np.ndarray | None) -> np.ndarray:
        """Post-process ``D = op(A).op(B)`` into ``alpha*D + beta*C``.

        Mirrors the paper's Section 3.5: the core routine always computes
        the plain product; scaling is applied afterwards only when the
        common case ``alpha=1, beta=0`` does not hold, and ``D`` *is* the
        output array when ``beta=0``.
        """
        if self.beta == 0.0:
            if self.alpha != 1.0:
                d *= self.alpha
            return d
        assert c is not None
        c *= self.beta
        if self.alpha == 1.0:
            c += d
        else:
            c += self.alpha * d
        return c


def dgemm_reference(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    op_a: "OpKind | str" = OpKind.NOTRANS,
    op_b: "OpKind | str" = OpKind.NOTRANS,
) -> np.ndarray:
    """Ground-truth dgemm via ``numpy.matmul`` (conventional O(n^3))."""
    p = GemmProblem.create(a, b, op_a=op_a, op_b=op_b, alpha=alpha, beta=beta, c=c)
    d = p.op_a_view @ p.op_b_view
    out = c.copy() if c is not None else None
    result = p.apply_scaling(d, out)
    return result
