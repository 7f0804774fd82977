"""Workload definitions: geometries, seeded operands, calls and the check.

A workload is a fixed list of GEMM geometries.  One *round* issues one
public engine call per geometry.  Operands come from the workload seed
alone and are generated before any timed region; the engine only ever
sees the generated arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.accuracy import higham_bound_factor

__all__ = [
    "Geometry",
    "Operands",
    "WORKLOADS",
    "geometries",
    "make_operands",
    "engine_call",
    "reference_call",
    "check",
]


@dataclass(frozen=True)
class Geometry:
    """One GEMM shape and spec: ``C = op(A) op(B) + beta C``.

    ``batch > 0`` makes it a ``multiply_many`` of that many independent
    ``(A, B)`` pairs (no transposes, no beta).
    """

    m: int
    k: int
    n: int
    dtype: str = "float64"
    trans_a: bool = False
    trans_b: bool = False
    beta: float = 0.0
    batch: int = 0

    @property
    def label(self) -> str:
        s = f"{self.m}x{self.k}x{self.n}:{self.dtype}"
        if self.trans_a:
            s += ":tA"
        if self.trans_b:
            s += ":tB"
        if self.beta:
            s += f":beta{self.beta}"
        if self.batch:
            s += f":x{self.batch}"
        return s

    @property
    def items(self) -> int:
        """Independent products one call computes."""
        return self.batch or 1

    def spec(self) -> dict:
        """Keyword arguments naming this geometry's plan spec."""
        return dict(
            dtype=self.dtype, trans_a=self.trans_a, trans_b=self.trans_b,
            beta=self.beta,
        )


# Why each workload exists is recorded in BENCHMARK.json; "tiny" is the
# same structure at a size the benchmark's own tests can run in seconds.
WORKLOADS: dict[str, dict[str, tuple[Geometry, ...]]] = {
    "square-deep": {
        "full": (Geometry(1024, 1024, 1024),),
        "tiny": (Geometry(200, 200, 200),),
    },
    "gemm-odd": {
        "full": (
            Geometry(999, 1001, 1003, trans_a=True, beta=0.5),
            Geometry(1000, 1000, 1000, dtype="float32"),
            Geometry(600, 1000, 800, trans_b=True),
        ),
        "tiny": (
            Geometry(199, 201, 203, trans_a=True, beta=0.5),
            Geometry(200, 200, 200, dtype="float32"),
            Geometry(120, 200, 160, trans_b=True),
        ),
    },
    "batch-small": {
        "full": (Geometry(96, 96, 96, batch=256),),
        "tiny": (Geometry(48, 48, 48, batch=8),),
    },
}


def geometries(workload: str, scale: str = "full") -> tuple[Geometry, ...]:
    try:
        return WORKLOADS[workload][scale]
    except KeyError:
        raise SystemExit(
            f"unknown workload/scale {workload!r}/{scale!r}; workloads: "
            f"{sorted(WORKLOADS)}, scales: full, tiny"
        ) from None


@dataclass
class Operands:
    """Inputs of one geometry plus its float64 reference result."""

    geom: Geometry
    a: np.ndarray  # stored operand: (k, m) when trans_a, (B, m, k) batched
    b: np.ndarray
    c0: np.ndarray | None  # the caller's C before the call (beta != 0)
    c: np.ndarray | None  # the C buffer the engine overwrites each call
    ref64: np.ndarray  # float64 op(A) op(B) + beta C0
    pairs: list | None = None  # multiply_many items (views into a/b)

    def reset(self) -> None:
        """Restore the caller's C before a call (outside timed regions)."""
        if self.c is not None:
            np.copyto(self.c, self.c0)

    @property
    def op_a(self) -> np.ndarray:
        return self.a.T if self.geom.trans_a else self.a

    @property
    def op_b(self) -> np.ndarray:
        return self.b.T if self.geom.trans_b else self.b


def make_operands(geoms, seed: int) -> list[Operands]:
    """Deterministic operands: the same seed gives the same arrays."""
    out = []
    for i, g in enumerate(geoms):
        rng = np.random.default_rng([seed, i])
        dt = np.dtype(g.dtype)
        if g.batch:
            a = rng.standard_normal((g.batch, g.m, g.k)).astype(dt)
            b = rng.standard_normal((g.batch, g.k, g.n)).astype(dt)
            ref = np.matmul(a.astype(np.float64), b.astype(np.float64))
            ops = Operands(g, a, b, None, None, ref,
                           pairs=[(a[j], b[j]) for j in range(g.batch)])
            out.append(ops)
            continue
        a = rng.standard_normal((g.k, g.m) if g.trans_a else (g.m, g.k))
        b = rng.standard_normal((g.n, g.k) if g.trans_b else (g.k, g.n))
        a, b = a.astype(dt), b.astype(dt)
        c0 = c = None
        if g.beta:
            c0 = rng.standard_normal((g.m, g.n)).astype(dt)
            c = c0.copy()
        ops = Operands(g, a, b, c0, c, ref64=None)
        ref = np.matmul(
            ops.op_a.astype(np.float64), ops.op_b.astype(np.float64)
        )
        if g.beta:
            ref += g.beta * c0.astype(np.float64)
        ops.ref64 = ref
        out.append(ops)
    return out


def engine_call(session, ops: Operands):
    """One public engine call (the caller resets C beforehand)."""
    g = ops.geom
    if g.batch:
        return session.multiply_many(ops.pairs, dtype=g.dtype)
    return session.multiply(ops.a, ops.b, c=ops.c, **g.spec())


def reference_call(ops: Operands):
    """The same operation through ``np.matmul`` in the operands' dtype."""
    g = ops.geom
    r = np.matmul(ops.op_a, ops.op_b)
    if g.beta:
        r += g.beta * ops.c0
    return r


def as_array(result) -> np.ndarray:
    """An engine result as one array (``multiply_many`` returns a list)."""
    return np.stack(result) if isinstance(result, list) else result


def check(ops: Operands, result, tilings) -> tuple[bool, float]:
    """Check one engine result against the float64 reference.

    Returns ``(ok, rel_err)``, where ``rel_err`` is the normwise
    ``||C - R||_F / ||R||_F``.  ``ok`` needs two bounds to hold:

    * the max-norm error is within the depth-aware Strassen-Winograd
      bound ``c(n) u max|op(A)| max|op(B)|`` (Higham ch. 23, ``n`` the
      largest padded dimension, ``n0`` the smallest leaf tile, ``u`` the
      dtype's unit roundoff) plus the rounding of the beta epilogue and
      of the final store;
    * ``rel_err <= 2^(d+2) u sqrt(k)`` for recursion depth ``d`` and inner
      dimension ``k``.  ``u sqrt(k)`` is the typical normwise error of
      length-``k`` inner products, and each Winograd level about doubles
      it: the three workloads measure 1.2 (d=2), 3.8 (d=4) and 7.7 (d=5)
      times ``u sqrt(k)``, and the bound sits 12 to 17 times above the
      measured error on every geometry, at both scales.

    The worst-case bound alone is loose: at 1000^2 float32 it exceeds the
    largest entry of the result, so it would pass an all-zero ``C``.  The
    normwise bound is what catches a wrong result there.  ``rel_err`` is
    also the reported error because the max-norm ratio is an extreme value
    over a million elements: its quartile spread over five seeds at
    1024^2 was 23% of its median, against under 3% for the normwise one.
    """
    g = ops.geom
    c = as_array(result)
    if c.shape != ops.ref64.shape or c.dtype != np.dtype(g.dtype):
        return False, float("inf")
    diff = c - ops.ref64
    err = float(np.max(np.abs(diff)))
    rmax = float(np.max(np.abs(ops.ref64)))
    unit = float(np.finfo(g.dtype).eps) / 2
    n = max(t.padded for t in tilings)
    n0 = min(t.tile for t in tilings)
    bound = higham_bound_factor(n, n0, unit) * float(
        np.max(np.abs(ops.a)) * np.max(np.abs(ops.b))
    )
    if g.beta:
        bound += 2 * unit * abs(g.beta) * float(np.max(np.abs(ops.c0)))
    bound += unit * rmax
    rel_err = float(np.linalg.norm(diff) / np.linalg.norm(ops.ref64))
    depth = max(t.depth for t in tilings)
    rel_bound = 2.0 ** (depth + 2) * unit * math.sqrt(g.k)
    ok = bool(np.isfinite(err) and err <= bound and rel_err <= rel_bound)
    return ok, rel_err
