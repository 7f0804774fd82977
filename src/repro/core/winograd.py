"""The Strassen-Winograd recursion on Morton-ordered operands.

This implements the paper's Section 2 equation set verbatim — the Winograd
variant with 7 recursive products and the minimum 15 matrix additions::

    S1 = A21 + A22      T1 = B12 - B11
    S2 = S1  - A11      T2 = B22 - T1
    S3 = A11 - A21      T3 = B22 - B12
    S4 = A12 - S2       T4 = B21 - T2

    P1 = A11.B11  P2 = A12.B21  P3 = S1.T1  P4 = S2.T2
    P5 = S3.T3    P6 = S4.B22   P7 = A22.T4

    C11 = U1 = P1 + P2          U2 = P1 + P4        U3 = U2 + P5
    C21 = U4 = U3 + P7          C22 = U5 = U3 + P3
    U6 = U2 + P3                C12 = U7 = U6 + P6

The concrete schedule below linearises those equations so that each level
needs only four scratch quarter-matrices besides the C quadrants — S
(A-shaped sums), T (B-shaped sums), and P/Q (C-shaped products) — with
every intermediate written exactly once and every addition an in-place
whole-buffer vector operation.  The sequencing was verified
symbolically (each C quadrant expands to exactly the four conventional
product terms) and is enforced by the property-based tests.

The recursion never descends below the Morton leaf tiles: by construction
(dynamic truncation, Section 3.4) the operands' depth *is* the recursion
depth, and leaves are multiplied by the conventional kernel.

Memory schedules
----------------
Three linearisations of the same equation set are provided, selected by
``memory=``:

* ``classic`` — the schedule above: S/T/P (+Q) scratch per level.
* ``two_temp`` — Boyer, Dumas, Pernet & Zhou's two-temporary schedule:
  the C quadrants receive the products directly and only an A-shaped X
  and a B-shaped Y temporary remain per level (X doubles as the C-shaped
  slot for P1; see :mod:`repro.core.workspace`).
* ``ip_overwrite`` — the fully in-place variant: **A and B are
  clobbered** and no scratch at all is allocated.  Requires uniform tile
  geometry (``tile_m == tile_k == tile_n``) because A-, B- and C-shaped
  intermediates share each other's quadrant slots.

All three perform the identical floating-point operations modulo
*commuting* the operands of two additions (U4's ``U3 + P7`` vs
``P7 + U3``, and the staging of U2/U3), which IEEE-754 addition renders
bit-identical on the same operands — the property tests assert exact
equality, not closeness.  (The engine's ``ip_overwrite`` plans transpose
an operand while converting it where the others relabel it; below
OpenBLAS's small-matrix bound, ``m*k*n <= 100**3`` per leaf, the two
orientations round apart by about 4e-14.)  The low-memory schedules
additionally fuse the three-operand U7 chain into a single
:meth:`~repro.core.ops.NumpyOps.add3` pass.
"""

from __future__ import annotations

import numpy as np

from ..layout.matrix import MortonMatrix
from ..layout.relabel import relabel_scratch, transposed_view
from .ops import NumpyOps, WinogradOps
from .workspace import BatchWorkspace, Workspace

__all__ = [
    "winograd_multiply",
    "multiply_morton",
    "MEMORY_SCHEDULES",
    "resolve_memory",
    "FUSED_PACKS_A",
    "FUSED_PACKS_B",
    "FUSED_SKIP_A",
    "FUSED_SKIP_B",
    "CONVERT_QUADS_A",
    "CONVERT_QUADS_B",
]

#: Selectable memory schedules, in decreasing scratch order.
MEMORY_SCHEDULES = ("classic", "two_temp", "ip_overwrite")

#: Quadrant algebra of the top-level fused packs (consumed by
#: :func:`repro.layout.convert.pack_morton_quarter`): name, sign, and the
#: two dense quadrants combined.  ``S1 = A21 + A22`` lands in the A21
#: buffer slot and ``T1 = B12 - B11`` in the B12 slot — those quadrants
#: are never consumed as plain Morton operands at the top level (they
#: appear only inside S/T sums), so no extra memory is needed; ``S3`` /
#: ``T3`` land in schedule-specific scratch (level scratch, or the
#: C11/C12 slots for ``ip_overwrite``).
FUSED_PACKS_A = (("S1", "+", (1, 0), (1, 1)), ("S3", "-", (0, 0), (1, 0)))
FUSED_PACKS_B = (("T1", "-", (0, 1), (0, 0)), ("T3", "-", (1, 1), (0, 1)))
#: The skipped (never-converted) quadrant per operand side, and the
#: complementary lists a fused conversion does copy.
FUSED_SKIP_A = (1, 0)
FUSED_SKIP_B = (0, 1)
CONVERT_QUADS_A = ((0, 0), (0, 1), (1, 1))
CONVERT_QUADS_B = ((0, 0), (1, 0), (1, 1))


def resolve_memory(memory: "str | None") -> str:
    """Canonicalise a ``memory=`` schedule name (``None`` -> ``classic``)."""
    if memory is None:
        return "classic"
    m = str(memory).strip().lower().replace("-", "_")
    if m == "ip":
        m = "ip_overwrite"
    if m not in MEMORY_SCHEDULES:
        raise ValueError(
            f"unknown memory schedule {memory!r}; "
            f"expected one of {MEMORY_SCHEDULES} (or the alias 'ip')"
        )
    return m


def _check_conformable(a: MortonMatrix, b: MortonMatrix, c: MortonMatrix) -> None:
    if not (a.depth == b.depth == c.depth):
        raise ValueError(
            f"operand depths differ: A={a.depth}, B={b.depth}, C={c.depth}; "
            "a GEMM must use a common recursion depth (select_common_tiling)"
        )
    if a.tile_c != b.tile_r:
        raise ValueError(
            f"inner tile edges disagree: A tiles {a.tile_r}x{a.tile_c}, "
            f"B tiles {b.tile_r}x{b.tile_c}"
        )
    if c.tile_r != a.tile_r or c.tile_c != b.tile_c:
        raise ValueError(
            f"C tiles {c.tile_r}x{c.tile_c} do not match product "
            f"{a.tile_r}x{b.tile_c}"
        )


def winograd_multiply(
    a: MortonMatrix,
    b: MortonMatrix,
    c: MortonMatrix,
    ops: WinogradOps | None = None,
    workspace: Workspace | None = None,
    memory: "str | None" = "classic",
    alpha: float = 1.0,
    beta: float = 0.0,
    trans_a: bool = False,
    trans_b: bool = False,
    prepacked: bool = False,
) -> MortonMatrix:
    """Compute ``C = alpha . op(A) . op(B) + beta . C`` over Morton operands.

    ``prepacked=True`` declares that the caller already performed the
    top level's fused convert-and-add packing: ``S3``/``T3`` sit in the
    outermost level's S/T scratch (the C11/C12 slots for
    ``ip_overwrite``), and ``S1``/``T1`` occupy the A21/B12 quadrant
    slots (see :data:`FUSED_PACKS_A`).  The top recursion level then
    skips its four standalone S1/S3/T1/T3 addition passes and reads the
    packed buffers instead — every remaining floating-point operation is
    unchanged, so results are bit-identical to the two-pass path.
    Requires ``depth >= 1`` and plain (non-relabeled) operands.

    With the default spec (``alpha=1, beta=0``, no transposes) ``c``'s
    buffer is overwritten entirely (including its pad).  ``alpha`` is
    folded into the recursion's final U-adds (or the leaf product at
    depth 0) — never a separate scaling pass.  ``beta != 0`` stages the
    product in a same-geometry temporary and folds it into the live ``c``
    with one streaming :meth:`~repro.core.ops.NumpyOps.accumulate` pass.
    ``trans_a``/``trans_b`` wrap the operand in a zero-copy
    :class:`~repro.layout.relabel.TransposedView` (quadrant relabeling;
    rejected for ``ip_overwrite``, whose slot-reuse schedule requires the
    plain permutation — transpose during conversion there instead).

    ``ops`` selects the backend (arithmetic or trace emission);
    ``workspace`` may be shared across calls of the same geometry and
    must have been built for the requested ``memory`` schedule.  With
    ``memory="ip_overwrite"`` **the contents of** ``a`` **and** ``b``
    **are destroyed** and no workspace is used.

    The operands may equally be same-shape
    :class:`~repro.layout.matrix.BatchMortonMatrix` stacks (with a
    batch-stacked workspace view): the recursion is written against the
    duck-typed quadrant/ops vocabulary, so one call then multiplies the
    whole batch — every addition a single ufunc over ``(B, elems)`` slabs,
    every leaf product one batched ``matmul`` — with per-item results
    bit-identical to the unbatched path (same addition order throughout).
    ``ip_overwrite`` is not offered for batches (the batched path never
    clobbers operands).
    """
    memory = resolve_memory(memory)
    if trans_a:
        a = transposed_view(a)
    if trans_b:
        b = transposed_view(b)
    if memory == "ip_overwrite" and (
        getattr(a, "transposed", False) or getattr(b, "transposed", False)
    ):
        raise ValueError(
            "memory='ip_overwrite' cannot consume relabeled (transposed) "
            "operands: the in-place schedule writes products into A/B "
            "quadrant slots, which live in the plain Morton permutation; "
            "fold the transpose into the conversion instead"
        )
    _check_conformable(a, b, c)
    if prepacked:
        if a.depth < 1:
            raise ValueError("prepacked=True needs depth >= 1")
        if getattr(a, "transposed", False) or getattr(b, "transposed", False):
            raise ValueError(
                "prepacked=True cannot consume relabeled (transposed) "
                "operands: the pack layout lives in the plain Morton "
                "permutation"
            )
    if ops is None:
        ops = NumpyOps()
    if memory != "classic" and a.depth > 0 and not hasattr(ops, "add3"):
        raise ValueError(
            f"ops backend {type(ops).__name__} lacks the fused add3/sub_into "
            f"passes required by the {memory!r} schedule; use memory='classic'"
        )
    if beta != 0.0 and not hasattr(ops, "accumulate"):
        raise ValueError(
            f"ops backend {type(ops).__name__} lacks the accumulate pass "
            "required by beta != 0"
        )
    batch = getattr(a, "batch", None)
    if batch is not None:
        if memory == "ip_overwrite":
            raise ValueError(
                "memory='ip_overwrite' is not supported for batched operands"
            )
        if workspace is None:
            ws = BatchWorkspace(
                batch, a.depth, a.tile_r, a.tile_c, b.tile_c,
                with_q=memory == "classic", schedule=memory,
                dtype=a.buf.dtype,
            )
            workspace = ws.view(0, batch)

    # beta: the recursion always produces a *fresh* product, so a live C
    # is preserved by computing alpha.op(A).op(B) into a same-geometry
    # staging matrix and folding it in with one streaming accumulate pass
    # (elementwise identical to the reference ``c *= beta; c += d``).
    target = c if beta == 0.0 else _staging_like(c)

    if memory == "ip_overwrite":
        if prepacked and beta != 0.0:
            raise ValueError(
                "prepacked=True with beta != 0 is unsupported for "
                "ip_overwrite: the S3/T3 packs live in C quadrant slots, "
                "but beta stages the product in a private temporary"
            )
        if a.depth > 0 and not (a.tile_r == a.tile_c == b.tile_c):
            raise ValueError(
                "ip_overwrite needs uniform tile geometry (tile_m == tile_k "
                f"== tile_n); got {a.tile_r}x{a.tile_c} . {b.tile_r}x{b.tile_c}"
            )
        _recurse_ip(a, b, target, ops, alpha, prepacked=prepacked)
    elif memory == "two_temp":
        if workspace is None:
            workspace = Workspace(
                a.depth, a.tile_r, a.tile_c, b.tile_c, schedule="two_temp"
            )
        elif getattr(workspace, "schedule", "classic") != "two_temp":
            raise ValueError(
                "winograd_multiply(memory='two_temp') needs a workspace "
                "built with schedule='two_temp'"
            )
        _recurse_two_temp(a, b, target, ops, workspace, alpha,
                          prepacked=prepacked)
    else:
        if workspace is None:
            workspace = Workspace(
                a.depth, a.tile_r, a.tile_c, b.tile_c, with_q=True
            )
        elif a.depth > 0 and workspace.at(a.depth - 1).q is None:
            raise ValueError(
                "winograd_multiply needs a workspace built with with_q=True"
            )
        _recurse(a, b, target, ops, workspace, alpha, prepacked=prepacked)

    if beta != 0.0:
        ops.accumulate(c, target, beta)
    return c


def _staging_like(c):
    """A fresh Morton(-batch) matrix congruent with ``c`` (for beta staging)."""
    return type(c)(
        buf=np.empty_like(c.buf),
        rows=c.rows,
        cols=c.cols,
        tile_r=c.tile_r,
        tile_c=c.tile_c,
        depth=c.depth,
    )


def _recurse(
    a: MortonMatrix,
    b: MortonMatrix,
    c: MortonMatrix,
    ops: WinogradOps,
    ws: Workspace,
    alpha: float = 1.0,
    prepacked: bool = False,
) -> None:
    if a.depth == 0:
        if alpha == 1.0:
            ops.leaf_mult(a, b, c)
        else:
            ops.leaf_mult(a, b, c, alpha)
        return

    a11, a12, a21, a22 = a.quadrants()
    b11, b12, b21, b22 = b.quadrants()
    c11, c12, c21, c22 = c.quadrants()
    lv = ws.at(a11.depth)
    s, t, p, q = lv.s, lv.t, lv.p, lv.q
    assert q is not None
    # S-intermediates of a relabeled operand are written (by flat ufuncs)
    # in that operand's *native* Morton permutation; descend the scratch
    # holding them with the same relabel.  Products (P/Q, C quadrants)
    # always land in the plain output permutation.
    if getattr(a, "transposed", False):
        s = relabel_scratch(s)
    if getattr(b, "transposed", False):
        t = relabel_scratch(t)

    # Phase 1: the five products that consume the S/T chains.  Each S_i/T_i
    # is formed in place in the shared scratch the moment its predecessors
    # are no longer needed — this is the common-subexpression reuse that
    # gives Winograd its 15-addition count.
    if prepacked:
        # Fused packing put S3/T3 in this level's scratch and S1/T1 in
        # the A21/B12 quadrant slots; only S2/T2 remain to be formed.
        _recurse(s, t, p, ops, ws)        # P  <- P5 = S3.T3
        _recurse(a21, b12, c22, ops, ws)  # C22 <- P3 = S1.T1
        ops.sub(s, a21, a11)              # S2 = S1 - A11
        ops.sub(t, b22, b12)              # T2 = B22 - T1
    else:
        ops.sub(s, a11, a21)            # S3
        ops.sub(t, b22, b12)            # T3
        _recurse(s, t, p, ops, ws)      # P  <- P5 = S3.T3
        ops.add(s, a21, a22)            # S1
        ops.sub(t, b12, b11)            # T1
        _recurse(s, t, c22, ops, ws)    # C22 <- P3 = S1.T1
        ops.sub(s, s, a11)              # S2 = S1 - A11
        ops.sub(t, b22, t)              # T2 = B22 - T1
    _recurse(s, t, c11, ops, ws)    # C11 <- P4 = S2.T2
    ops.sub(s, a12, s)              # S4 = A12 - S2
    ops.sub(t, b21, t)              # T4 = B21 - T2
    _recurse(s, b22, c12, ops, ws)  # C12 <- P6 = S4.B22
    _recurse(a22, t, c21, ops, ws)  # C21 <- P7 = A22.T4

    # Phase 2: the two plain products and the U-chain combinations.  P1 and
    # P2 are C-shaped, so they stage in the C-shaped scratch: P1 in Q, and
    # P2 reuses P once U3 has been consumed.
    _recurse(a11, b11, q, ops, ws)  # Q <- P1
    ops.iadd(c11, q)                # C11 = U2 = P1 + P4
    ops.iadd(p, c11)                # P   = U3 = U2 + P5
    ops.iadd(c12, c11)              # C12 = P6 + U2
    if alpha == 1.0:
        ops.iadd(c12, c22)              # C12 = U7 = U6 + P3
        ops.iadd(c21, p)                # C21 = U4 = U3 + P7
        ops.iadd(c22, p)                # C22 = U5 = U3 + P3
        _recurse(a12, b21, p, ops, ws)  # P <- P2
        ops.add(c11, q, p)              # C11 = U1 = P1 + P2
    else:
        # alpha rides the four final U-adds (each C quadrant's last
        # write); the ordering above guarantees no scaled quadrant is
        # read again (U7 consumes P3 before U5 scales C22).
        ops.iadd_scale(c12, c22, alpha)
        ops.iadd_scale(c21, p, alpha)
        ops.iadd_scale(c22, p, alpha)
        _recurse(a12, b21, p, ops, ws)  # P <- P2
        ops.add_scale(c11, q, p, alpha)


def _recurse_two_temp(
    a: MortonMatrix,
    b: MortonMatrix,
    c: MortonMatrix,
    ops: WinogradOps,
    ws: Workspace,
    alpha: float = 1.0,
    prepacked: bool = False,
) -> None:
    """Boyer et al.'s two-temporary schedule: C quadrants double as scratch.

    Per level only X (A-shaped, ``lv.s``) and Y (B-shaped, ``lv.t``)
    temporaries exist; ``lv.p`` is a C-shaped *view of X's buffer* used to
    stage P1 once the S-chain is dead.  Every floating-point operation
    matches :func:`_recurse` exactly except U4 and U1/U2 staging, whose
    additions are merely commuted — hence bit-identical results.  A and B
    are never written.
    """
    if a.depth == 0:
        if alpha == 1.0:
            ops.leaf_mult(a, b, c)
        else:
            ops.leaf_mult(a, b, c, alpha)
        return

    a11, a12, a21, a22 = a.quadrants()
    b11, b12, b21, b22 = b.quadrants()
    c11, c12, c21, c22 = c.quadrants()
    lv = ws.at(a11.depth)
    x, y, xc = lv.s, lv.t, lv.p  # xc aliases x's buffer (C-shaped view)
    # Relabel the temporary that mirrors a transposed operand (see
    # _recurse).  xc stays plain: it stages P1, a *product*, which always
    # lands in the output permutation (the buffers overlap but are used
    # at disjoint times, so the two descents never mix).
    if getattr(a, "transposed", False):
        x = relabel_scratch(x)
    if getattr(b, "transposed", False):
        y = relabel_scratch(y)

    if prepacked:
        # Fused packing: S3/T3 in X/Y, S1/T1 in the A21/B12 slots (see
        # _recurse) — only S2/T2 remain, read from the packed slots.
        _recurse_two_temp(x, y, c21, ops, ws)      # C21 <- P5 = S3.T3
        _recurse_two_temp(a21, b12, c22, ops, ws)  # C22 <- P3 = S1.T1
        ops.sub(x, a21, a11)                       # S2 = S1 - A11
        ops.sub(y, b22, b12)                       # T2 = B22 - T1
    else:
        ops.sub(x, a11, a21)                     # S3
        ops.sub(y, b22, b12)                     # T3
        _recurse_two_temp(x, y, c21, ops, ws)    # C21 <- P5 = S3.T3
        ops.add(x, a21, a22)                     # S1
        ops.sub(y, b12, b11)                     # T1
        _recurse_two_temp(x, y, c22, ops, ws)    # C22 <- P3 = S1.T1
        ops.sub(x, x, a11)                       # S2 = S1 - A11
        ops.sub_into(y, b22)                     # T2 = B22 - T1
    _recurse_two_temp(x, y, c12, ops, ws)    # C12 <- P4 = S2.T2
    ops.sub(x, a12, x)                       # S4 = A12 - S2
    _recurse_two_temp(x, b22, c11, ops, ws)  # C11 <- P6 = S4.B22
    _recurse_two_temp(a11, b11, xc, ops, ws)  # X <- P1 (S-chain is dead)

    ops.iadd(c12, xc)            # C12 = U2 = P4 + P1
    ops.iadd(c21, c12)           # C21 = U3 = P5 + U2
    if alpha == 1.0:
        ops.add3(c12, c11, c12, c22)  # C12 = U7 = (P6 + U2) + P3
        ops.iadd(c22, c21)           # C22 = U5 = P3 + U3
    else:
        # the four final U-adds carry alpha; U7 reads P3 (c22) and U5
        # reads U3 (c21) before either is scaled, and P7/P2 below are
        # staged in c11 unscaled until their own finals.
        ops.add3_scale(c12, c11, c12, c22, alpha)
        ops.iadd_scale(c22, c21, alpha)
    ops.sub_into(y, b21)         # T4 = B21 - T2
    _recurse_two_temp(a22, y, c11, ops, ws)   # C11 <- P7 (P6 consumed)
    if alpha == 1.0:
        ops.iadd(c21, c11)           # C21 = U4 = U3 + P7
        _recurse_two_temp(a12, b21, c11, ops, ws)  # C11 <- P2 (P7 consumed)
        ops.add(c11, xc, c11)        # C11 = U1 = P1 + P2
    else:
        ops.iadd_scale(c21, c11, alpha)
        _recurse_two_temp(a12, b21, c11, ops, ws)
        ops.add_scale(c11, xc, c11, alpha)


def _recurse_ip(
    a: MortonMatrix,
    b: MortonMatrix,
    c: MortonMatrix,
    ops: WinogradOps,
    alpha: float = 1.0,
    prepacked: bool = False,
) -> None:
    """Fully in-place schedule: zero scratch, A and B quadrants are consumed.

    Each S/T intermediate and each product lands in a quadrant slot whose
    previous value is provably dead; requires uniform tile geometry so A-,
    B- and C-shaped values are interchangeable.  Same floating-point
    operations as :func:`_recurse` modulo commuted additions (see
    :func:`_recurse_two_temp`).
    """
    if a.depth == 0:
        if alpha == 1.0:
            ops.leaf_mult(a, b, c)
        else:
            ops.leaf_mult(a, b, c, alpha)
        return

    a11, a12, a21, a22 = a.quadrants()
    b11, b12, b21, b22 = b.quadrants()
    c11, c12, c21, c22 = c.quadrants()

    if prepacked:
        # Fused packing: S3/T3 already sit in the C11/C12 slots, S1/T1
        # in the A21/B12 slots — the four slot-filling passes are gone.
        _recurse_ip(c11, c12, c21, ops)  # C21 <- P5 (consumes S3, T3)
        ops.sub(c12, a21, a11)        # C12 <- S2 = S1 - A11
        _recurse_ip(a11, b11, c11, ops)  # C11 <- P1 (A11, B11 die)
        ops.sub(b11, b22, b12)        # B11 <- T2 = B22 - T1
        _recurse_ip(a21, b12, c22, ops)  # C22 <- P3 (S1, T1 die)
    else:
        ops.sub(c11, a11, a21)        # C11 <- S3
        ops.sub(c12, b22, b12)        # C12 <- T3
        _recurse_ip(c11, c12, c21, ops)  # C21 <- P5 (consumes S3, T3 copies)
        ops.add(a21, a21, a22)        # A21 <- S1
        ops.sub(b12, b12, b11)        # B12 <- T1
        ops.sub(c12, a21, a11)        # C12 <- S2 = S1 - A11
        _recurse_ip(a11, b11, c11, ops)  # C11 <- P1 (A11, B11 die)
        ops.sub(b11, b22, b12)        # B11 <- T2 = B22 - T1
        _recurse_ip(a21, b12, c22, ops)  # C22 <- P3 (S1, T1 die)
    ops.sub(a21, a12, c12)        # A21 <- S4 = A12 - S2
    ops.sub(b12, b21, b11)        # B12 <- T4 = B21 - T2
    _recurse_ip(c12, b11, a11, ops)  # A11 <- P4 (S2, T2 die)
    _recurse_ip(a21, b22, c12, ops)  # C12 <- P6 (S4, B22 die)
    _recurse_ip(a22, b12, b22, ops)  # B22 <- P7 (A22, T4 die)
    _recurse_ip(a12, b21, a22, ops)  # A22 <- P2 (A12, B21 die)

    ops.iadd(a11, c11)            # A11 = U2 = P4 + P1
    ops.iadd(c21, a11)            # C21 = U3 = P5 + U2
    if alpha == 1.0:
        ops.add3(c12, c12, a11, c22)  # C12 = U7 = (P6 + U2) + P3
        ops.iadd(c22, c21)            # C22 = U5 = P3 + U3
        ops.iadd(c21, b22)            # C21 = U4 = U3 + P7
        ops.iadd(c11, a22)            # C11 = U1 = P1 + P2
    else:
        # alpha on the four finals; each reads only unscaled values (U7
        # consumes P3 before U5 scales it, U5 consumes U3 before U4).
        ops.add3_scale(c12, c12, a11, c22, alpha)
        ops.iadd_scale(c22, c21, alpha)
        ops.iadd_scale(c21, b22, alpha)
        ops.iadd_scale(c11, a22, alpha)


def multiply_morton(
    a: MortonMatrix,
    b: MortonMatrix,
    ops: WinogradOps | None = None,
) -> MortonMatrix:
    """Convenience wrapper: allocate C, run the recursion.

    With the default arithmetic backend the call routes through the
    default session's pooled per-geometry workspace *and output buffer*
    (:meth:`repro.engine.GemmSession.multiply_morton`) instead of
    allocating fresh scratch per call — the returned matrix stays valid
    until the next same-geometry call, so copy it to keep results across
    calls.  A custom ``ops`` backend (e.g. the trace emitter) cannot
    share pooled numeric scratch and keeps the direct allocating path.
    """
    if ops is None:
        from ..engine.session import default_session  # avoid import cycle

        return default_session().multiply_morton(a, b)
    c = MortonMatrix(
        buf=np.empty(
            (a.tile_r << a.depth) * (b.tile_c << b.depth), dtype=np.float64
        ),
        rows=a.rows,
        cols=b.cols,
        tile_r=a.tile_r,
        tile_c=b.tile_c,
        depth=a.depth,
    )
    return winograd_multiply(a, b, c, ops=ops)
