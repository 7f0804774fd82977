"""Engine x plan-store integration: precedence, key resolution, artifacts
and compatibility with store documents that still carry the removed
conversion ``calibrations`` section."""

from __future__ import annotations

import json
import warnings

from repro.blas.kernels import get_accumulate_cap, set_accumulate_cap
from repro.engine.session import GemmSession
from repro.observe.schema import EVENT_KINDS, validate_trace
from repro.tune.store import PlanStore, StoredDecision

#: A store document in the format written before the conversion
#: calibrations were removed: a ``calibrations`` section beside the
#: entries and artifacts (the entry was tuned with fused packing on).
LEGACY_DOC = {
    "schema": "repro.plan_store",
    "version": 1,
    "entries": {
        "96x96x96:float64:winograd:fp=True": {
            "tile_m": 12, "tile_k": 12, "tile_n": 12, "depth": 3,
            "memory": "two_temp", "source": "autotune",
        },
    },
    "calibrations": {
        "136x136:t17x17:d3:float64": {"mode": "indexed", "baseline": 0.002},
        "513x513:t33x33:d4:float64": {"mode": "loop", "baseline": 0.004},
    },
    "artifacts": {"accumulate_cap": 1 << 18},
}


class TestPrecedence:
    def test_env_var_attaches_store(self, tmp_path, monkeypatch):
        path = tmp_path / "env.json"
        monkeypatch.setenv("REPRO_PLAN_STORE", str(path))
        s = GemmSession()
        assert s.plan_store is not None
        assert s.plan_store.path == path
        s.close()

    def test_explicit_arg_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_STORE", str(tmp_path / "env.json"))
        s = GemmSession(plan_store=tmp_path / "arg.json")
        assert s.plan_store.path == tmp_path / "arg.json"
        s.close()

    def test_explicit_none_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_STORE", str(tmp_path / "env.json"))
        s = GemmSession(plan_store=None)
        assert s.plan_store is None
        s.close()

    def test_no_env_no_arg_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_STORE", raising=False)
        s = GemmSession()
        assert s.plan_store is None
        s.close()

    def test_shared_store_instance(self, tmp_path):
        shared = PlanStore(tmp_path / "shared.json")
        s1 = GemmSession(plan_store=shared)
        s2 = GemmSession(plan_store=shared)
        assert s1.plan_store is shared and s2.plan_store is shared
        s1.close()
        s2.close()


class TestKeyResolution:
    def test_store_decision_drives_policy(self, tmp_path):
        store = PlanStore(tmp_path / "p.json")
        store.record(96, 96, 96, StoredDecision(
            tile_m=12, tile_k=12, tile_n=12, depth=3, memory="two_temp",
        ))
        with GemmSession(plan_store=store) as s:
            plan = s.plan(96, 96, 96)
            assert [t.tile for t in plan.tilings] == [12, 12, 12]
            assert plan.tilings[0].depth == 3
            assert plan.key.memory == "two_temp"
            st = s.stats()
            assert st.store_hits == 1 and st.store_misses == 0

    def test_explicit_caller_args_beat_store(self, tmp_path):
        store = PlanStore(tmp_path / "p.json")
        store.record(96, 96, 96, StoredDecision(
            tile_m=12, tile_k=12, tile_n=12, depth=3, memory="two_temp",
        ))
        with GemmSession(plan_store=store) as s:
            # Explicit policy: the store is not even consulted.
            plan = s.plan(96, 96, 96, policy=48)
            assert plan.tilings[0].tile == 48
            assert s.stats().store_hits == 0
            # Policy from store, but explicit memory wins over its field.
            plan = s.plan(96, 96, 96, memory="classic")
            assert plan.tilings[0].tile == 12
            assert plan.key.memory == "classic"

    def test_miss_counts_and_default_fallback(self, tmp_path):
        with GemmSession(plan_store=tmp_path / "p.json") as s:
            plan = s.plan(96, 96, 96)
            st = s.stats()
            assert st.store_misses == 1 and st.store_hits == 0
            # Heuristic default applies on a miss.
            assert plan.tilings == s.default_policy.plan(96, 96, 96)

    def test_store_lookup_trace_event_and_schema(self, tmp_path):
        assert "store_lookup" in EVENT_KINDS
        assert "autotune_trial" in EVENT_KINDS
        store = PlanStore(tmp_path / "p.json")
        store.record(96, 96, 96, StoredDecision(
            tile_m=12, tile_k=12, tile_n=12, depth=3,
        ))
        with GemmSession(plan_store=store, trace=True) as s:
            s.plan(96, 96, 96)
            s.plan(64, 64, 64)
            doc = s.trace.dump()
        validate_trace(doc)
        lookups = [e for e in doc["events"] if e["kind"] == "store_lookup"]
        assert [e["data"]["hit"] for e in lookups] == [True, False]

    def test_unusable_record_falls_back(self, tmp_path):
        store = PlanStore(tmp_path / "p.json")
        # tile * 2^depth < n: not a plannable decision for this shape.
        store.record(96, 96, 96, StoredDecision(
            tile_m=2, tile_k=2, tile_n=2, depth=1,
        ))
        with GemmSession(plan_store=store) as s:
            plan = s.plan(96, 96, 96)  # must not raise
            assert plan.tilings == s.default_policy.plan(96, 96, 96)


class TestLegacyStore:
    def test_calibrations_ignored_then_dropped_on_flush(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(LEGACY_DOC))
        original = get_accumulate_cap()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                store = PlanStore(path)
                assert set(store.entries()) == set(LEGACY_DOC["entries"])
                assert store.get_artifact("accumulate_cap") == 1 << 18
                assert not store.dirty
                with GemmSession(plan_store=store, fused_pack=True) as s:
                    plan = s.plan(96, 96, 96)
                    assert [t.tile for t in plan.tilings] == [12, 12, 12]
                    assert plan.key.memory == "two_temp"
                    assert s.stats().store_hits == 1
                    assert get_accumulate_cap() == 1 << 18
            assert json.loads(path.read_text()) == LEGACY_DOC  # clean
            store.record(64, 64, 64, StoredDecision(
                tile_m=16, tile_k=16, tile_n=16, depth=2,
            ))
            store.flush()
            doc = json.loads(path.read_text())
            assert "calibrations" not in doc
            assert set(doc["entries"]) == (
                set(LEGACY_DOC["entries"])
                | {"64x64x64:float64:winograd:fp=False"}
            )
            assert doc["artifacts"] == LEGACY_DOC["artifacts"]
        finally:
            set_accumulate_cap(original)


class TestArtifacts:
    def test_accumulate_cap_applied_from_store(self, tmp_path):
        original = get_accumulate_cap()
        try:
            store = PlanStore(tmp_path / "p.json")
            store.record(96, 96, 96, StoredDecision(
                tile_m=12, tile_k=12, tile_n=12, depth=3,
            ))
            store.set_artifact("accumulate_cap", 1 << 18)
            with GemmSession(plan_store=store) as s:
                s.plan(96, 96, 96)  # first consult applies the artifact
                assert get_accumulate_cap() == 1 << 18
        finally:
            set_accumulate_cap(original)

    def test_explicit_cap_outranks_store_artifact(self, tmp_path):
        original = get_accumulate_cap()
        try:
            store = PlanStore(tmp_path / "p.json")
            store.set_artifact("accumulate_cap", 1 << 18)
            with GemmSession(
                plan_store=store, accumulate_cap=1 << 19
            ) as s:
                s.plan(96, 96, 96)
                assert get_accumulate_cap() == 1 << 19
        finally:
            set_accumulate_cap(original)


class TestClose:
    def test_close_flushes_store(self, tmp_path):
        path = tmp_path / "p.json"
        store = PlanStore(path)
        s = GemmSession(plan_store=store)
        store.record(96, 96, 96, StoredDecision(
            tile_m=12, tile_k=12, tile_n=12, depth=3,
        ))
        assert not path.exists()
        s.close()
        assert path.exists()
        assert PlanStore(path).lookup(96, 96, 96) is not None

    def test_stats_fields_default_zero(self):
        with GemmSession(plan_store=None) as s:
            st = s.stats()
            assert st.store_hits == 0
            assert st.store_misses == 0
            assert st.autotune_seconds == 0.0
