"""Autotuner behaviour: enumeration, model pruning, tuning, the CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cachesim.rank import (
    model_tilings,
    rank_tilings,
    resolve_machine,
    simulate_tilings,
)
from repro.core.truncation import DEFAULT_POLICY, LEAF_MAX
from repro.engine.session import GemmSession
from repro.layout.padding import Tiling
from repro.tune.autotune import enumerate_tilings
from repro.tune.store import PlanStore


def _tilings(n, tile, depth):
    return tuple(Tiling(n=n, tile=tile, depth=depth) for _ in range(3))


class TestRank:
    def test_model_orders_depths_sensibly(self):
        # At 512 on a 16 KB cache, some recursion must beat depth-0
        # (one giant conventional product misses everywhere).
        flat = model_tilings(_tilings(512, 512, 0), "atom")
        deep = model_tilings(_tilings(512, 32, 4), "atom")
        assert deep.seconds < flat.seconds
        assert flat.flops == 2 * 512**3

    def test_model_counts_are_positive_and_exact_flops(self):
        from repro.analysis.flops import winograd_flops

        t = _tilings(512, 64, 3)
        run = model_tilings(t, "ultra")
        assert run.flops == winograd_flops(t)
        assert run.accesses > 0
        assert len(run.misses) == len(resolve_machine("ultra").levels)
        assert all(m > 0 for m in run.misses)

    def test_rank_never_drops_default(self):
        # Make the default the *worst* candidate; it must survive anyway.
        cands = [
            _tilings(512, 512, 0),  # default: no recursion at all
            _tilings(512, 64, 3),
            _tilings(512, 32, 4),
        ]
        ranked = rank_tilings(
            cands, "atom", keep_ratio=1.01, max_keep=1, default_index=0
        )
        by_default = {rc.is_default: rc for rc in ranked}
        assert by_default[True].kept
        # Cheapest-first ordering.
        seconds = [rc.run.seconds for rc in ranked]
        assert seconds == sorted(seconds)

    def test_rank_prunes_beyond_ratio(self):
        cands = [_tilings(512, 32, 4), _tilings(512, 512, 0)]
        ranked = rank_tilings(cands, "atom", keep_ratio=1.05, max_keep=8)
        kept = [rc for rc in ranked if rc.kept]
        assert len(kept) == 1

    def test_rank_validates_arguments(self):
        with pytest.raises(ValueError):
            rank_tilings([], keep_ratio=0.5)
        with pytest.raises(ValueError):
            rank_tilings([], max_keep=0)
        assert rank_tilings([]) == []
        with pytest.raises(ValueError, match="unknown machine"):
            resolve_machine("cray")

    def test_simulate_agrees_with_model_on_ordering(self):
        # Exact simulation is slow; use a tiny shape, single-level cache.
        good = _tilings(64, 16, 2)
        bad = _tilings(64, 64, 0)
        sim_good = simulate_tilings(good, "atom")
        sim_bad = simulate_tilings(bad, "atom")
        mod_good = model_tilings(good, "atom")
        mod_bad = model_tilings(bad, "atom")
        assert (sim_good.seconds < sim_bad.seconds) == (
            mod_good.seconds < mod_bad.seconds
        )


class TestEnumerate:
    def test_default_leads_and_deduped(self):
        default = _tilings(512, 32, 4)
        cands = enumerate_tilings(512, 512, 512, default=default)
        assert cands[0] == default
        sigs = [tuple((t.tile, t.depth) for t in c) for c in cands]
        assert len(sigs) == len(set(sigs))

    def test_all_candidates_cover_the_problem(self):
        for cand in enumerate_tilings(513, 513, 513):
            for t in cand:
                assert t.padded >= t.n == 513

    def test_spans_paper_range_and_default_leaves(self):
        # tiles=True reaches both the paper's 16..64 leaves and the
        # BLAS-sized ones the default policy plans.
        tiles = {c[0].tile for c in enumerate_tilings(1024, 1024, 1024)}
        assert {16, 32, 64} <= tiles
        assert DEFAULT_POLICY.plan(1024, 1024, 1024)[0].tile in tiles
        assert max(tiles) == LEAF_MAX

    def test_rectangular_shapes(self):
        cands = enumerate_tilings(384, 96, 768)
        assert cands  # at least one common depth exists
        for cand in cands:
            assert [t.n for t in cand] == [384, 96, 768]


class TestAutotune:
    def test_tune_records_decision_and_wins_are_sane(self, tmp_path):
        path = tmp_path / "plans.json"
        with GemmSession(plan_store=path) as s:
            result = s.autotune([96], rounds=2)
        assert result.tuned == 1
        rep = result.reports[0]
        assert rep.winner is not None
        assert rep.winner_seconds <= rep.default_seconds
        assert result.store_path == str(path)
        dec = PlanStore(path).lookup(96, 96, 96)
        assert dec is not None
        assert dec.source == "autotune"
        # The winner's decision must reproduce a plannable policy.
        assert dec.policy(96, 96, 96).plan(96, 96, 96) is not None

    def test_tuned_session_bit_identical_to_default(self, tmp_path):
        path = tmp_path / "plans.json"
        rng = np.random.default_rng(7)
        a = np.asfortranarray(rng.standard_normal((96, 96)))
        b = np.asfortranarray(rng.standard_normal((96, 96)))
        with GemmSession(plan_store=None) as plain:
            expected = plain.multiply(a, b)
        with GemmSession(plan_store=path) as s:
            s.autotune([96], rounds=2)
        with GemmSession(plan_store=path) as warm:
            got = warm.multiply(a, b)
            assert warm.stats().store_hits > 0
        # The default search space is bit-identity preserving.
        assert np.array_equal(got, expected)

    def test_autotune_seconds_reported(self, tmp_path):
        with GemmSession(plan_store=tmp_path / "p.json") as s:
            assert s.stats().autotune_seconds == 0.0
            s.autotune([64], rounds=1)
            assert s.stats().autotune_seconds > 0.0

    def test_autotune_emits_trial_events(self, tmp_path):
        with GemmSession(plan_store=tmp_path / "p.json", trace=True) as s:
            s.autotune([64], rounds=1)
            kinds = [e.kind for e in s.trace.events()]
        assert "autotune_trial" in kinds

    def test_panelled_shape_skipped(self, tmp_path):
        # Wildly rectangular: no common tiling for the default policy.
        with GemmSession(plan_store=tmp_path / "p.json") as s:
            result = s.autotune([(4096, 16, 16)], rounds=1)
        assert result.tuned == 0
        assert result.reports[0].skipped is not None

    def test_tiles_search_widens_space(self, tmp_path):
        with GemmSession(plan_store=tmp_path / "p.json") as s:
            narrow = s.autotune([96], rounds=1)
            wide = s.autotune([96], rounds=1, tiles=True)
        assert wide.reports[0].survivors >= narrow.reports[0].survivors

    def test_validates_arguments(self, tmp_path):
        with GemmSession(plan_store=None) as s:
            with pytest.raises(ValueError):
                s.autotune([64], rounds=0)
            with pytest.raises(ValueError):
                s.autotune([64], margin=1.5)

    def test_dry_run_without_store(self):
        with GemmSession(plan_store=None) as s:
            result = s.autotune([64], rounds=1)
        assert result.store_path is None
        assert result.tuned == 1


class TestCli:
    def _run(self, *argv, env_extra=None):
        env = dict(os.environ)
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env["PYTHONPATH"] = src
        env.pop("REPRO_PLAN_STORE", None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "repro.tune", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_cli_tunes_and_persists(self, tmp_path):
        path = tmp_path / "plans.json"
        proc = self._run("64", "--store", str(path), "--rounds", "1")
        assert proc.returncode == 0, proc.stderr
        assert "64x64x64" in proc.stdout
        assert str(path) in proc.stdout
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.plan_store"
        assert doc["entries"]

    def test_cli_dry_run_without_store(self):
        proc = self._run("64", "--rounds", "1")
        assert proc.returncode == 0, proc.stderr
        assert "dry run" in proc.stdout

    def test_cli_rejects_malformed_shape(self):
        proc = self._run("64x64")
        assert proc.returncode != 0
