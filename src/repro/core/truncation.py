"""Truncation policy: how the recursion depth and leaf tiles are chosen.

The engine's default is :meth:`TruncationPolicy.shallow`: BLAS-sized
leaves (16..:data:`LEAF_MAX`) under the fewest Winograd levels, at least
one.  Two policies reproduce the paper's comparison:

* :meth:`TruncationPolicy.dynamic` — the paper's contribution: pick the
  tile edge from a range (default 16..64) to minimise padding
  (Section 3.4).
* :meth:`TruncationPolicy.fixed` — the conventional scheme with one static
  tile size (Figure 2's fixed line uses 32): the padded size is forced to
  ``T * 2**d``, which in the worst case nearly doubles the matrix
  (513 -> 1024 at T = 32).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import PlanError
from ..layout.padding import TileRange, Tiling, feasible_depths, select_common_tiling

__all__ = ["TruncationPolicy", "DEFAULT_POLICY", "LEAF_MAX"]

#: Largest leaf tile of the default policy: the one-level tile of 1024^2,
#: the largest benchmarked size.  Engine time over ``np.matmul`` falls from
#: 4.1 at T=32 to 1.3 at T=512 and keeps falling past 512 at larger sizes
#: (``benchmarks/leaf_sweep.py``; EXPERIMENTS.md *BLAS-sized leaves*).
LEAF_MAX = 512


@dataclass(frozen=True)
class TruncationPolicy:
    """Selects the common recursion depth and per-dimension tiles for a GEMM.

    Exactly one of ``tile_range`` (dynamic selection) or ``fixed_tile``
    (static truncation point) is set.  ``cache_bytes``, when set on a
    dynamic policy, additionally avoids tile choices whose quadrant layout
    is congruent modulo that (direct-mapped L1) cache size — the paper's
    Section 4.2 future work, implemented; see
    :func:`repro.layout.padding.conflict_levels`.
    """

    tile_range: TileRange | None
    fixed_tile: int | None
    label: str
    cache_bytes: int | None = None
    #: A pre-selected tiling pinned to specific GEMM dimensions (the plan
    #: store's decision replay).  When the planned dims match, ``plan``
    #: returns these tilings without searching; otherwise the policy falls
    #: back to its dynamic range like any other dynamic policy.
    pinned: tuple[Tiling, Tiling, Tiling] | None = None
    #: Plan the shallowest common depth >= 1 whose tiles fit the range (the
    #: :meth:`shallow` rule; ``cache_bytes`` does not apply), not the
    #: paper's padding minimum with ties to the geometric-midpoint tile.
    fewest_levels: bool = False

    @classmethod
    def dynamic(cls, min_tile: int = 16, max_tile: int = 64) -> "TruncationPolicy":
        return cls(
            tile_range=TileRange(min_tile, max_tile),
            fixed_tile=None,
            label=f"dynamic[{min_tile},{max_tile}]",
        )

    @classmethod
    def shallow(cls, min_tile: int = 16,
                max_tile: int = LEAF_MAX) -> "TruncationPolicy":
        """The engine default: the shallowest common depth >= 1 in range
        (the least total padding, like :meth:`dynamic`, in fewest levels)."""
        return cls(tile_range=TileRange(min_tile, max_tile), fixed_tile=None,
                   label=f"shallow[{min_tile},{max_tile}]", fewest_levels=True)

    @classmethod
    def conflict_aware(
        cls, cache_bytes: int, min_tile: int = 16, max_tile: int = 64
    ) -> "TruncationPolicy":
        """Dynamic selection that also dodges cache-congruent quadrants.

        Accepts a little extra padding (e.g. 512 -> 528 with tile 33) when
        that breaks the quadrant-base congruence that causes the paper's
        505..512 conflict regime.  ``cache_bytes`` should be the L1 size
        of the machine the multiply will run on.
        """
        if cache_bytes < 1:
            raise PlanError(f"cache_bytes must be >= 1, got {cache_bytes}")
        return cls(
            tile_range=TileRange(min_tile, max_tile),
            fixed_tile=None,
            label=f"conflict-aware[{min_tile},{max_tile};{cache_bytes}B]",
            cache_bytes=cache_bytes,
        )

    @classmethod
    def pinned_tiling(
        cls,
        m: int,
        k: int,
        n: int,
        tiles: tuple[int, int, int],
        depth: int,
        min_tile: int = 16,
        max_tile: int = 64,
    ) -> "TruncationPolicy":
        """A policy that replays a known-good (T, d) for specific dims.

        This is how a plan-store decision re-enters the planner: the
        stored per-dimension tiles and common depth are returned verbatim
        when :meth:`plan` is asked about exactly ``(m, k, n)``.  Any
        *other* dims (the policy object leaking onto a different call
        site) fall back to dynamic selection over ``min_tile..max_tile``
        rather than mis-applying the pin.
        """
        if depth < 0:
            raise PlanError(f"pinned depth must be >= 0, got {depth}")
        if len(tiles) != 3 or min(tiles) < 1:
            raise PlanError(f"pinned tiles must be 3 positive ints, got {tiles}")
        pinned = tuple(
            Tiling(n=dim, tile=tile, depth=depth)
            for dim, tile in zip((m, k, n), tiles)
        )
        return cls(
            tile_range=TileRange(min_tile, max_tile),
            fixed_tile=None,
            label=(
                f"pinned[{m}x{k}x{n};"
                f"T={tiles[0]},{tiles[1]},{tiles[2]};d={depth}]"
            ),
            pinned=pinned,  # type: ignore[arg-type]
        )

    @classmethod
    def fixed(cls, tile: int = 32) -> "TruncationPolicy":
        """Static truncation point ``tile`` (Figure 2's fixed line)."""
        if tile < 1:
            raise PlanError(f"fixed tile must be >= 1, got {tile}")
        return cls(tile_range=None, fixed_tile=tile, label=f"fixed[{tile}]")

    @classmethod
    def coerce(cls, value: "TruncationPolicy | int | str | None") -> "TruncationPolicy":
        """Normalise the policy argument forms every entry point accepts.

        * ``None`` — the package default, :data:`DEFAULT_POLICY`;
        * a :class:`TruncationPolicy` — passed through;
        * an ``int`` — a static truncation point, i.e. ``fixed(value)``
          (the spelling the baselines historically used);
        * a ``str`` — ``"shallow"``, ``"dynamic"``, ``"fixed"``, or a
          parameterised form ``"shallow:16,512"`` / ``"dynamic:16,64"`` /
          ``"fixed:48"``.
        """
        if value is None:
            return DEFAULT_POLICY
        if isinstance(value, TruncationPolicy):
            return value
        if isinstance(value, bool):
            raise PlanError(f"cannot interpret {value!r} as a truncation policy")
        if isinstance(value, int):
            return cls.fixed(value)
        if isinstance(value, str):
            name, _, params = value.partition(":")
            name = name.strip().lower()
            try:
                if name in ("dynamic", "shallow"):
                    ctor = getattr(cls, name)
                    if not params:
                        return ctor()
                    lo, hi = (int(p) for p in params.split(","))
                    return ctor(lo, hi)
                if name == "fixed":
                    return cls.fixed(int(params)) if params else cls.fixed()
            except (TypeError, ValueError) as exc:
                if isinstance(exc, PlanError):
                    raise
                raise PlanError(f"malformed policy string {value!r}") from None
        raise PlanError(
            f"cannot interpret {value!r} as a truncation policy; expected a "
            "TruncationPolicy, an int truncation point, or 'shallow'/'dynamic'/'fixed'"
        )

    def truncation_point(self) -> int:
        """The scalar recursion crossover this policy implies.

        The baselines (DGEFMM/DGEMMW) have no per-dimension tile search —
        they stop recursing below a single crossover.  A fixed policy maps
        to its tile; a dynamic policy to the top of its tile range (64 for
        the paper's 16..64, matching the baselines' published value).
        """
        if self.pinned is not None:
            return max(t.tile for t in self.pinned)
        if self.fixed_tile is not None:
            return self.fixed_tile
        assert self.tile_range is not None
        return self.tile_range.max_tile

    def plan(self, m: int, k: int, n: int) -> tuple[Tiling, Tiling, Tiling] | None:
        """Common tiling for all three GEMM dimensions, or None (split needed).

        Dynamic policy: minimise total padding over the common feasible
        depths (may be None for highly rectangular problems — the caller
        then panels the operands, Section 3.5); a shallow one takes the
        shallowest common depth >= 1, or depth 0 when that is all there is.

        Fixed policy: every dimension pads up to ``T * 2**d`` with the
        single depth ``d`` forced by the largest dimension (a matrix no
        larger than T in every dimension is a single conventional leaf).
        Never None — static padding always "works", just expensively.
        """
        if min(m, k, n) < 1:
            raise PlanError(f"GEMM dimensions must be >= 1, got {(m, k, n)}")
        if self.pinned is not None and (m, k, n) == tuple(
            t.n for t in self.pinned
        ):
            return self.pinned
        if self.fewest_levels:
            # Padding (-n) mod 2**d never falls as d grows, so the
            # shallowest common depth also minimises total padding.
            per_dim = [{t.depth: t for t in feasible_depths(d, self.tile_range)}
                       for d in (m, k, n)]
            common = set(per_dim[0]).intersection(*per_dim[1:])
            if not common:
                return None
            depth = min(common - {0} or common)
            return tuple(p[depth] for p in per_dim)  # type: ignore[return-value]
        if self.tile_range is not None:
            return select_common_tiling(
                (m, k, n), self.tile_range, cache_bytes=self.cache_bytes
            )
        t = self.fixed_tile
        assert t is not None
        dims = (m, k, n)
        depth = max(
            (math.ceil(math.log2(-(-d // t))) if d > t else 0) for d in dims
        )
        if depth == 0:
            return tuple(Tiling(n=d, tile=d, depth=0) for d in dims)  # type: ignore[return-value]
        return tuple(Tiling(n=d, tile=t, depth=depth) for d in dims)  # type: ignore[return-value]


DEFAULT_POLICY = TruncationPolicy.shallow()
