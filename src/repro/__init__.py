"""repro — reproduction of *Tuning Strassen's Matrix Multiplication for
Memory Efficiency* (Thottethodi, Chatterjee & Lebeck, SC 1998).

Quick start::

    import numpy as np
    import repro

    a = np.random.default_rng(0).standard_normal((513, 513))
    b = np.random.default_rng(1).standard_normal((513, 513))
    c = repro.modgemm(a, b)            # Morton-order Strassen-Winograd
    assert np.allclose(c, a @ b)

Package map (see DESIGN.md for the full architecture):

* :mod:`repro.core` — MODGEMM: the Strassen-Winograd recursion over
  Morton-ordered buffers with dynamic truncation-point selection.
* :mod:`repro.layout` — the Morton (quadtree) layout engine and the
  padding-minimising tile search.
* :mod:`repro.baselines` — DGEFMM (dynamic peeling), DGEMMW (dynamic
  overlap), and conventional kernels.
* :mod:`repro.cachesim` — trace-driven cache simulation of the paper's
  platforms (the ATOM substitute).
* :mod:`repro.engine` — the plan-caching GEMM execution engine:
  :class:`GemmSession` memoises compiled plans (tilings, pooled Morton
  buffers, workspaces, resolved kernels) across repeated multiplies.
* :mod:`repro.analysis` — timing protocol, operation counts, accuracy.
* :mod:`repro.experiments` — one runner per paper figure
  (``python -m repro.experiments all``).

Sessions are the serving-workload API::

    session = repro.GemmSession()
    c = session.multiply(a, b)          # plans once per geometry
    cs = session.multiply_many([(a1, b1), (a2, b2)])
"""

from .errors import (
    ReproError, ShapeError, DTypeError, PlanError, KernelError,
    BatchItemError, InvariantError,
)
from .observe import TraceEvent, Tracer, validate_trace
from .blas.dgemm import GemmProblem, OpKind, dgemm_reference
from .core.modgemm import modgemm, modgemm_morton, PhaseTimings
from .core.truncation import TruncationPolicy
from .layout.matrix import MortonMatrix
from .layout.padding import TileRange, Tiling, select_tiling, select_common_tiling
from .baselines.dgefmm import dgefmm
from .baselines.dgemmw import dgemmw
from .engine import (
    CompiledPlan,
    GemmSession,
    GemmSpec,
    Mat,
    SessionStats,
    default_session,
    reset_default_session,
)
from .tune import PlanStore, StoredDecision, autotune

__version__ = "1.1.0"

__all__ = [
    "modgemm",
    "modgemm_morton",
    "PhaseTimings",
    "TruncationPolicy",
    "MortonMatrix",
    "TileRange",
    "Tiling",
    "select_tiling",
    "select_common_tiling",
    "GemmProblem",
    "OpKind",
    "dgemm_reference",
    "dgefmm",
    "dgemmw",
    "GemmSession",
    "GemmSpec",
    "Mat",
    "CompiledPlan",
    "SessionStats",
    "default_session",
    "reset_default_session",
    "ReproError",
    "ShapeError",
    "DTypeError",
    "PlanError",
    "KernelError",
    "BatchItemError",
    "InvariantError",
    "Tracer",
    "TraceEvent",
    "validate_trace",
    "PlanStore",
    "StoredDecision",
    "autotune",
    "__version__",
]
