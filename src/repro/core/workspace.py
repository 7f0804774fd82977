"""Preallocated scratch buffers for the Strassen recursions.

Each level of the classic Winograd recursion needs three quarter-size
scratch matrices (S for A-shaped sums, T for B-shaped sums, P for one
C-shaped product); the original Strassen variant needs a fourth (Q,
C-shaped).  Because the seven recursive products at a level execute
sequentially, the deeper levels can all share one set of buffers — so
total scratch is a geometric series bounded by ~1/3 of the operand sizes
per shape, allocated once up front rather than churned per recursive call.

The low-memory schedules of Boyer, Dumas, Pernet & Zhou shrink the per
level footprint further:

* ``two_temp`` keeps only two temporaries per level — one A-shaped X and
  one B-shaped Y — and lets the C quadrants hold the products directly.
  X also has to hold one C-shaped product (P1), so its backing buffer is
  sized ``max(|A quarter|, |C quarter|)`` and exposed through two aliased
  Morton views (``s`` A-shaped, ``p`` C-shaped).
* ``ip_overwrite`` needs **no** scratch at all: the recursion clobbers the
  A and B quadrants themselves.

``Workspace.nbytes`` reports the true allocation (aliased views counted
once); ``total_bytes`` is kept as a backwards-compatible alias.

A workspace built with ``orders=(order_a, order_b)`` holds
:class:`~repro.layout.strided.StridedMatrix` views instead, for plans
that run on strided views of the caller's arrays: S in ``order_a``, T in
``order_b`` (the operands' memory orders, so every addition streams
like-ordered arrays) and the C-shaped P/Q column-major, like a leaf
product's destination.
"""

from __future__ import annotations

import numpy as np

from ..layout.matrix import BatchMortonMatrix, MortonMatrix, staggered_buffer
from ..layout.strided import StridedMatrix
from ..observe.validate import POISON

__all__ = ["Workspace", "BatchWorkspace", "WORKSPACE_SCHEDULES"]

#: Scratch layouts a :class:`Workspace` can be built for.
WORKSPACE_SCHEDULES = ("classic", "two_temp", "ip_overwrite")


def _view(
    buf: np.ndarray, depth: int, tile_r: int, tile_c: int,
    order: str | None = None,
) -> "MortonMatrix | StridedMatrix":
    n = (tile_r << depth) * (tile_c << depth)
    if order is not None:
        shape = (tile_r << depth, tile_c << depth)
        return StridedMatrix(buf[:n].reshape(shape, order=order), depth)
    return MortonMatrix(
        buf=buf[:n],
        rows=tile_r << depth,
        cols=tile_c << depth,
        tile_r=tile_r,
        tile_c=tile_c,
        depth=depth,
    )


class _Level:
    """Scratch Morton matrices for one recursion level.

    ``classic``: ``s``/``t``/``p`` (and ``q`` when ``with_q``) are four
    independent buffers.  ``two_temp``: ``s`` and ``p`` are two views of
    the *same* buffer (the schedule never needs both shapes live at once);
    ``q`` is ``None``.  ``ip_overwrite`` levels are never built.
    """

    __slots__ = ("s", "t", "p", "q", "nbytes")

    def __init__(
        self,
        depth: int,
        tiles_a: tuple[int, int],
        tiles_b: tuple[int, int],
        tiles_c: tuple[int, int],
        with_q: bool,
        schedule: str,
        dtype=np.float64,
        orders: tuple[str, str] | None = None,
    ) -> None:
        def elems(tile_r: int, tile_c: int) -> int:
            return (tile_r << depth) * (tile_c << depth)

        oa, ob, oc = (None, None, None) if orders is None else (*orders, "F")
        if schedule == "two_temp":
            x = np.empty(max(elems(*tiles_a), elems(*tiles_c)), dtype=dtype)
            y = np.empty(elems(*tiles_b), dtype=dtype)
            self.s = _view(x, depth, *tiles_a, oa)
            self.t = _view(y, depth, *tiles_b, ob)
            self.p = _view(x, depth, *tiles_c, oc)  # aliases s — by design
            self.q = None
            self.nbytes = x.nbytes + y.nbytes
        else:
            def new(tiles, order):
                return _view(np.empty(elems(*tiles), dtype=dtype), depth,
                             *tiles, order)

            self.s = new(tiles_a, oa)
            self.t = new(tiles_b, ob)
            self.p = new(tiles_c, oc)
            self.q = (
                new(tiles_c, oc)
                if with_q
                else None
            )
            self.nbytes = self.s.buf.nbytes + self.t.buf.nbytes + self.p.buf.nbytes
            if self.q is not None:
                self.nbytes += self.q.buf.nbytes


class Workspace:
    """Scratch for a depth-``d`` recursion over a given tile geometry.

    ``levels[j]`` serves the recursion level whose *children* have depth
    ``d - 1 - j`` (i.e. the scratch matrices at ``levels[j]`` are quarter
    matrices of a depth-``d - j`` problem).

    ``schedule`` selects the per-level layout (see module docstring); an
    ``ip_overwrite`` workspace owns no levels and no bytes.  ``orders``
    builds strided levels for unpadded plans (see module docstring).
    """

    def __init__(
        self,
        depth: int,
        tile_m: int,
        tile_k: int,
        tile_n: int,
        with_q: bool = False,
        schedule: str = "classic",
        dtype=np.float64,
        orders: tuple[str, str] | None = None,
    ) -> None:
        if schedule not in WORKSPACE_SCHEDULES:
            raise ValueError(
                f"unknown workspace schedule {schedule!r}; "
                f"expected one of {WORKSPACE_SCHEDULES}"
            )
        if with_q and schedule != "classic":
            raise ValueError(
                "with_q (Strassen's Q buffer) is only meaningful for the "
                f"classic schedule, not {schedule!r}"
            )
        self.depth = depth
        self.schedule = schedule
        if schedule == "ip_overwrite":
            self.levels = []
        else:
            self.levels = [
                _Level(
                    d,
                    tiles_a=(tile_m, tile_k),
                    tiles_b=(tile_k, tile_n),
                    tiles_c=(tile_m, tile_n),
                    with_q=with_q,
                    schedule=schedule,
                    dtype=dtype,
                    orders=orders,
                )
                for d in range(depth - 1, -1, -1)
            ]

    def at(self, child_depth: int) -> _Level:
        """Scratch whose matrices have the given (child) depth."""
        return self.levels[self.depth - 1 - child_depth]

    @property
    def nbytes(self) -> int:
        """Bytes actually allocated (aliased two_temp views counted once)."""
        return sum(lv.nbytes for lv in self.levels)

    @property
    def total_bytes(self) -> int:
        """Backwards-compatible alias for :attr:`nbytes`."""
        return self.nbytes

    def _buffers(self):
        for lv in self.levels:
            for mm in (lv.s, lv.t, lv.p, lv.q):
                if mm is not None:
                    yield mm.buf

    def poison(self, value: float = POISON) -> None:
        """Fill every scratch buffer with the quiescence sentinel.

        Debug mode calls this after each execution; every buffer is
        write-before-read within an execution, so the fill never changes
        results.  Aliased ``two_temp`` views are filled twice, harmlessly.
        """
        for buf in self._buffers():
            buf.fill(value)

    def poison_intact(self, value: float = POISON) -> bool:
        """True iff no scratch element changed since :meth:`poison`."""
        return all(bool((buf == value).all()) for buf in self._buffers())


class _BatchLevel:
    """Stacked scratch views for one recursion level of a batch stripe."""

    __slots__ = ("s", "t", "p", "q")

    def __init__(self, s, t, p, q) -> None:
        self.s, self.t, self.p, self.q = s, t, p, q


class _BatchWorkspaceView:
    """Duck-types :class:`Workspace` for one ``[lo, hi)`` row range.

    Each view's levels are row slices of the shared raw arrays, so
    disjoint batch stripes can recurse concurrently over the same
    :class:`BatchWorkspace` with no contention and no extra memory.
    """

    __slots__ = ("schedule", "depth", "levels")

    def __init__(self, schedule: str, depth: int, levels: list) -> None:
        self.schedule = schedule
        self.depth = depth
        self.levels = levels

    def at(self, child_depth: int) -> _BatchLevel:
        return self.levels[self.depth - 1 - child_depth]


class BatchWorkspace:
    """Batch-stacked scratch for ``cap`` same-geometry recursions at once.

    The raw backing arrays are ``(cap, elems)`` — one scratch row per batch
    item — and :meth:`view` carves ``[lo, hi)`` row-range adapters whose
    levels hold :class:`~repro.layout.matrix.BatchMortonMatrix` views.  The
    ``two_temp`` aliasing (A-shaped X doubling as the C-shaped P1 slot)
    carries over as two column-prefix views of the same rows.
    ``ip_overwrite`` is rejected: the batched path never clobbers operands.
    """

    def __init__(
        self,
        cap: int,
        depth: int,
        tile_m: int,
        tile_k: int,
        tile_n: int,
        with_q: bool = False,
        schedule: str = "classic",
        dtype=np.float64,
        stagger: int = 0,
    ) -> None:
        if schedule not in ("classic", "two_temp"):
            raise ValueError(
                f"BatchWorkspace supports 'classic' and 'two_temp', not {schedule!r}"
            )
        if with_q and schedule != "classic":
            raise ValueError("with_q requires the classic schedule")
        self.cap = cap
        self.depth = depth
        self.schedule = schedule
        self.dtype = np.dtype(dtype)
        self._tiles = (tile_m, tile_k, tile_n)
        self._raw: list[dict] = []  # per level, outermost first
        self._views: dict[tuple[int, int], _BatchWorkspaceView] = {}
        # Give every buffer a distinct stagger index (continuing from the
        # caller's base) so sibling buffers do not alias; within each,
        # staggered_buffer keeps the rows off common cache sets.
        def alloc(elems: int) -> np.ndarray:
            nonlocal stagger
            buf = staggered_buffer((cap, elems), dtype, stagger)
            stagger += 1 if stagger else 0
            return buf

        for d in range(depth - 1, -1, -1):
            ea = (tile_m << d) * (tile_k << d)
            eb = (tile_k << d) * (tile_n << d)
            ec = (tile_m << d) * (tile_n << d)
            if schedule == "two_temp":
                raw = {
                    "x": alloc(max(ea, ec)),
                    "y": alloc(eb),
                }
            else:
                raw = {
                    "s": alloc(ea),
                    "t": alloc(eb),
                    "p": alloc(ec),
                }
                if with_q:
                    raw["q"] = alloc(ec)
            raw["_depth"] = d
            self._raw.append(raw)

    def _bmm(self, buf2d, depth: int, tile_r: int, tile_c: int) -> BatchMortonMatrix:
        elems = (tile_r << depth) * (tile_c << depth)
        return BatchMortonMatrix(
            buf=buf2d[:, :elems],
            rows=tile_r << depth,
            cols=tile_c << depth,
            tile_r=tile_r,
            tile_c=tile_c,
            depth=depth,
        )

    def view(self, lo: int, hi: int) -> _BatchWorkspaceView:
        """Workspace adapter over batch rows ``[lo, hi)`` (cached)."""
        if not (0 <= lo < hi <= self.cap):
            raise ValueError(f"stripe [{lo}, {hi}) outside capacity {self.cap}")
        key = (lo, hi)
        cached = self._views.get(key)
        if cached is not None:
            return cached
        tile_m, tile_k, tile_n = self._tiles
        levels = []
        for raw in self._raw:
            d = raw["_depth"]
            if self.schedule == "two_temp":
                x, y = raw["x"][lo:hi], raw["y"][lo:hi]
                levels.append(
                    _BatchLevel(
                        s=self._bmm(x, d, tile_m, tile_k),
                        t=self._bmm(y, d, tile_k, tile_n),
                        p=self._bmm(x, d, tile_m, tile_n),  # aliases s
                        q=None,
                    )
                )
            else:
                levels.append(
                    _BatchLevel(
                        s=self._bmm(raw["s"][lo:hi], d, tile_m, tile_k),
                        t=self._bmm(raw["t"][lo:hi], d, tile_k, tile_n),
                        p=self._bmm(raw["p"][lo:hi], d, tile_m, tile_n),
                        q=self._bmm(raw["q"][lo:hi], d, tile_m, tile_n)
                        if "q" in raw
                        else None,
                    )
                )
        view = _BatchWorkspaceView(self.schedule, self.depth, levels)
        self._views[key] = view
        return view

    @property
    def nbytes(self) -> int:
        """Bytes actually allocated (aliased two_temp views counted once,
        row pitch included)."""
        return sum(arr.shape[0] * arr.strides[0] for arr in self._buffers())

    @property
    def total_bytes(self) -> int:
        return self.nbytes

    def _buffers(self):
        for raw in self._raw:
            for name, arr in raw.items():
                if name != "_depth":
                    yield arr

    def poison(self, value: float = POISON) -> None:
        """Fill every stacked scratch row with the quiescence sentinel."""
        for arr in self._buffers():
            arr.fill(value)

    def poison_intact(self, value: float = POISON) -> bool:
        """True iff no stacked scratch element changed since :meth:`poison`."""
        return all(bool((arr == value).all()) for arr in self._buffers())
