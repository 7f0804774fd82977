"""Unit and integration tests for the structured event tracer."""

from __future__ import annotations

import json
import threading

import pytest

from repro.engine import GemmSession
from repro.observe import (
    EVENT_KINDS,
    TRACE_SCHEMA_VERSION,
    Tracer,
    validate_trace,
)


class TestRingBuffer:
    def test_capacity_bounds_events_and_counts_drops(self):
        tr = Tracer(capacity=4, enabled=True)
        for i in range(7):
            tr.emit("add", label=f"e{i}")
        events = tr.events()
        assert len(events) == 4
        assert tr.dropped == 3
        # Oldest dropped: the window holds the most recent events.
        assert [ev.label for ev in events] == ["e3", "e4", "e5", "e6"]
        assert [ev.seq for ev in events] == [3, 4, 5, 6]

    def test_seq_monotonic_and_timestamps_ordered(self):
        tr = Tracer(enabled=True)
        for _ in range(5):
            tr.emit("convert", label="x")
        events = tr.events()
        assert [ev.seq for ev in events] == list(range(5))
        assert all(e0.t <= e1.t for e0, e1 in zip(events, events[1:]))
        assert all(ev.thread == threading.get_ident() for ev in events)

    def test_clear_resets_counters(self):
        tr = Tracer(capacity=2, enabled=True)
        for _ in range(5):
            tr.emit("add")
        tr.clear()
        assert tr.events() == [] and tr.dropped == 0
        tr.emit("add")
        assert tr.events()[0].seq == 0

    def test_unknown_kind_rejected(self):
        tr = Tracer(enabled=True)
        with pytest.raises(ValueError, match="unknown trace event kind"):
            tr.emit("bogus")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_disabled_by_default(self):
        assert Tracer().enabled is False
        assert Tracer().enable().enabled is True


class TestCallbacks:
    def test_on_event_fires_and_unsubscribes(self):
        tr = Tracer(enabled=True)
        seen = []
        unsubscribe = tr.on_event(seen.append)
        tr.emit("add", label="one")
        assert len(seen) == 1 and seen[0].label == "one"
        unsubscribe()
        unsubscribe()  # idempotent
        tr.emit("add", label="two")
        assert len(seen) == 1

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            Tracer().on_event("not-a-function")


class TestDump:
    def test_dump_validates_against_schema(self):
        tr = Tracer(capacity=8, enabled=True)
        for kind in ("plan_compile", "convert", "exec", "worker_start"):
            tr.emit(kind, label=kind, seconds=0.5, worker=0)
        doc = tr.dump()
        assert validate_trace(doc) is doc
        assert doc["version"] == TRACE_SCHEMA_VERSION
        assert doc["capacity"] == 8 and doc["dropped"] == 0
        # The contract is plain JSON: a round trip must be lossless.
        assert json.loads(json.dumps(doc)) == doc

    def test_tampered_document_rejected_with_path(self):
        tr = Tracer(enabled=True)
        tr.emit("add")
        doc = tr.dump()
        doc["events"][0]["kind"] = "bogus"
        with pytest.raises(ValueError, match=r"events\[0\].kind"):
            validate_trace(doc)
        doc = tr.dump()
        del doc["capacity"]
        with pytest.raises(ValueError, match="capacity"):
            validate_trace(doc)

    def test_every_kind_is_schema_valid(self):
        tr = Tracer(capacity=len(EVENT_KINDS), enabled=True)
        for kind in EVENT_KINDS:
            tr.emit(kind, label=kind)
        validate_trace(tr.dump())


class TestTimeline:
    def test_spans_gaps_and_steal_flag(self):
        tr = Tracer(enabled=True)
        tr.emit("worker_start", label="first", worker=0, task=0)
        tr.emit("worker_finish", label="first", worker=0, task=0)
        tr.emit("worker_steal", label="second", worker=0, task=1)
        tr.emit("worker_finish", label="second", worker=0, task=1)
        tl = tr.timeline()
        assert list(tl) == [threading.get_ident()]
        mine = tl[threading.get_ident()]
        assert [s["label"] for s in mine["spans"]] == ["first", "second"]
        assert [s["stolen"] for s in mine["spans"]] == [False, True]
        assert len(mine["gaps"]) == 1
        assert mine["busy"] >= 0.0 and mine["idle"] >= 0.0
        assert mine["gaps"][0]["dt"] == pytest.approx(
            mine["spans"][1]["t0"] - mine["spans"][0]["t1"]
        )

    def test_unpaired_events_ignored(self):
        tr = Tracer(enabled=True)
        tr.emit("worker_finish", label="orphan")  # no opener
        tr.emit("worker_start", label="dangling")  # never finishes
        assert tr.timeline() == {}


class TestSessionTracing:
    def test_disabled_by_default_emits_nothing(self, rng):
        with GemmSession() as s:
            assert s.trace.enabled is False
            s.multiply(
                rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
            )
            assert s.trace.events() == []

    def test_multiply_emits_compile_convert_exec(self, rng):
        a = rng.standard_normal((66, 66))
        b = rng.standard_normal((66, 66))
        with GemmSession(trace=True) as s:
            s.multiply(a, b)
            kinds = {ev.kind for ev in s.trace.events()}
            assert {"plan_compile", "convert", "add", "exec"} <= kinds
            assert kinds <= set(EVENT_KINDS)
            s.multiply(a, b)
            assert "plan_hit" in {ev.kind for ev in s.trace.events()}
            validate_trace(s.trace.dump())

    def test_leaf_products_emit_leaf_events(self, rng):
        a = rng.standard_normal((200, 200))
        b = rng.standard_normal((200, 200))
        with GemmSession(trace=True) as s:
            s.multiply(a, b)  # one Winograd level over 100^2 leaves
            leaves = [ev for ev in s.trace.events() if ev.kind == "leaf"]
            doc = s.trace.dump()
        assert len(leaves) == 7
        assert all(
            (ev.data["m"], ev.data["k"], ev.data["n"]) == (100, 100, 100)
            and ev.data["items"] == 1 and ev.data["seconds"] > 0
            for ev in leaves
        )
        validate_trace(doc)

    def test_stacked_leaf_products_emit_one_event_per_stack(self, rng):
        pairs = [
            (rng.standard_normal((64, 64)), rng.standard_normal((64, 64)))
            for _ in range(4)
        ]
        with GemmSession(trace=True) as s:
            s.multiply_many(pairs)  # T=32, depth 1
            leaves = [ev for ev in s.trace.events() if ev.kind == "leaf"]
        assert len(leaves) == 7
        assert {(ev.label, ev.data["items"]) for ev in leaves} == {("stack", 4)}

    def test_eviction_emits_plan_evict(self, rng):
        with GemmSession(capacity=1, trace=True) as s:
            s.multiply(
                rng.standard_normal((40, 40)), rng.standard_normal((40, 40))
            )
            s.multiply(
                rng.standard_normal((50, 50)), rng.standard_normal((50, 50))
            )
            evicts = [
                ev for ev in s.trace.events() if ev.kind == "plan_evict"
            ]
        assert len(evicts) == 1
        assert evicts[0].label.startswith("40x40x40")

    def test_parallel_execution_traces_workers(self, rng):
        a = rng.standard_normal((129, 129))
        b = rng.standard_normal((129, 129))
        with GemmSession(trace=True, max_workers=2) as s:
            s.multiply(a, b, schedule="tasks:1")
            kinds = {ev.kind for ev in s.trace.events()}
            assert "worker_finish" in kinds
            assert kinds & {"worker_start", "worker_steal"}
            tl = s.trace.timeline()
        assert tl, "worker events must produce a non-empty timeline"
        spans = [sp for t in tl.values() for sp in t["spans"]]
        assert len(spans) >= 7  # one per top-level product at least

    def test_batched_execution_traces_stripes(self, rng):
        pairs = [
            (rng.standard_normal((64, 64)), rng.standard_normal((64, 64)))
            for _ in range(4)
        ]
        with GemmSession(trace=True) as s:
            s.multiply_many(pairs)
            events = s.trace.events()
        kinds = {ev.kind for ev in events}
        assert "batch_stripe" in kinds
        execs = [ev for ev in events if ev.kind == "exec"]
        assert any(ev.data and ev.data.get("items") == 4 for ev in execs)
        convert_labels = {
            ev.label for ev in events if ev.kind == "convert"
        }
        # Fused packing converts each side separately (batch-a/batch-b);
        # the unfused path emits one combined batch-in event.
        assert "batch-out" in convert_labels
        assert (
            {"batch-a", "batch-b"} <= convert_labels
            or "batch-in" in convert_labels
        )

    def test_enable_mid_stream(self, rng):
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        with GemmSession() as s:
            s.multiply(a, b)
            assert s.trace.events() == []
            s.trace.enable()
            s.multiply(a, b)
            assert s.trace.events()
            s.trace.disable()
            n = len(s.trace.events())
            s.multiply(a, b)
            assert len(s.trace.events()) == n

    def test_trace_capacity_forwarded(self):
        s = GemmSession(trace=True, trace_capacity=3)
        assert s.trace.capacity == 3
