"""Engine-level tests of the task-DAG scheduling modes.

The load-bearing property: every schedule — sequential, ``tasks`` at any
expansion depth, any worker count — produces *bitwise identical* results,
because the task graph performs the same floating-point operations on the
same values as the sequential recursion (commuted additions only).
"""

import threading

import numpy as np
import pytest

from repro.engine import GemmSession, PlanKey, Schedule, WorkerPool
from repro.errors import PlanError
from repro.layout.convert import conversion_table


@pytest.fixture(scope="module")
def shared_pool():
    pool = WorkerPool(4, name="test-engine-pool")
    yield pool
    pool.shutdown()


def sequential_reference(rng, n):
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    with GemmSession() as s:
        return a, b, s.multiply(a, b)


class TestBitIdentity:
    # 513 pads to 528 with odd 33-wide tiles at depth 4; 528 divides
    # evenly.  Both exercise genuine padding/depth in the task graph.
    @pytest.mark.parametrize("n", [513, 528])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_tasks_matches_sequential(self, rng, n, depth):
        a, b, ref = sequential_reference(rng, n)
        with GemmSession(max_workers=4) as s:
            c = s.multiply(a, b, schedule=Schedule.tasks(depth=depth))
            assert np.array_equal(c, ref)
            # warm (cached-plan) rerun too
            assert np.array_equal(s.multiply(a, b, schedule=f"tasks:{depth}"), ref)

    @pytest.mark.parametrize("workers", [1, 2, 7, 16])
    def test_any_worker_count(self, rng, workers):
        a, b, ref = sequential_reference(rng, 150)
        with GemmSession(max_workers=workers) as s:
            c = s.multiply(a, b, schedule="tasks:2")
            assert np.array_equal(c, ref)

    def test_rectangular_and_transposed(self, rng):
        a = rng.standard_normal((96, 130))
        b = rng.standard_normal((96, 110))
        with GemmSession() as s:
            ref = s.multiply(a, b, op_a="t")
            with GemmSession(max_workers=2) as p:
                assert np.array_equal(
                    p.multiply(a, b, op_a="t", schedule="tasks"), ref
                )

    def test_parallel_bool_back_compat(self, rng):
        a, b, ref = sequential_reference(rng, 150)
        with GemmSession() as s:
            c = s.multiply(a, b, parallel=True)
            assert np.array_equal(c, ref)
            key = s.plan(150, 150, 150, parallel=True).key
            assert key.parallel and key.schedule == Schedule.tasks(1, 7)


class TestPlanCache:
    def test_schedules_get_distinct_plans(self, rng):
        with GemmSession(max_workers=2) as s:
            p_seq = s.plan(150, 150, 150)
            p_t1 = s.plan(150, 150, 150, schedule="tasks:1")
            p_t2 = s.plan(150, 150, 150, schedule="tasks:2")
            assert len({id(p_seq), id(p_t1), id(p_t2)}) == 3
            assert s.plan(150, 150, 150, schedule=Schedule.tasks(2)) is p_t2

    def test_expansion_depth_clamped_to_recursion(self, rng):
        a, b, ref = sequential_reference(rng, 96)  # shallow: depth 1-2
        with GemmSession(max_workers=2) as s:
            c = s.multiply(a, b, schedule="tasks:6")
            assert np.array_equal(c, ref)

    def test_depth_zero_geometry_runs_sequentially(self, rng):
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal((20, 20))
        with GemmSession(max_workers=2) as s:
            plan = s.plan(20, 20, 20, schedule="tasks")
            assert plan._graph is None  # no recursion to parallelise
            assert np.allclose(plan.execute(a, b), a @ b)

    def test_tasks_rejected_for_strassen(self):
        with GemmSession() as s:
            with pytest.raises(PlanError):
                s.plan(150, 150, 150, variant="strassen", schedule="tasks")

    def test_session_default_schedule(self, rng):
        a, b, ref = sequential_reference(rng, 150)
        with GemmSession(schedule="tasks:2", max_workers=2) as s:
            assert s.plan(150, 150, 150).key.schedule == Schedule.tasks(2)
            assert np.array_equal(s.multiply(a, b), ref)
            # per-call override back to sequential
            assert not s.plan(150, 150, 150, schedule="sequential").key.parallel

    def test_plan_key_hashes_with_schedule(self):
        with GemmSession() as s:
            key = s.plan(96, 96, 96, schedule="tasks:2x4").key
            assert isinstance(key, PlanKey)
            assert key.schedule == Schedule.tasks(depth=2, workers=4)
            assert hash(key) == hash(key)


class TestWorkerPoolOwnership:
    def test_pool_created_lazily(self):
        with GemmSession(max_workers=3) as s:
            s.plan(150, 150, 150)  # sequential: no pool needed
            assert s._pool is None
            s.plan(150, 150, 150, schedule="tasks")
            assert s._pool is None  # compile alone does not spin it up

    def test_concurrent_sessions_share_one_pool(self, rng, shared_pool):
        a = rng.standard_normal((150, 150))
        b = rng.standard_normal((150, 150))
        with GemmSession() as ref_s:
            ref = ref_s.multiply(a, b)
        sessions = [GemmSession(pool=shared_pool) for _ in range(3)]
        results = [None] * len(sessions)
        errors = []

        def work(i, s):
            try:
                for _ in range(3):
                    results[i] = s.multiply(a, b, schedule="tasks:2")
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i, s))
            for i, s in enumerate(sessions)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert all(np.array_equal(r, ref) for r in results)
        # close() must leave the shared pool running
        for s in sessions:
            s.close()
        assert shared_pool.run_all([lambda: None]).tasks == 1

    def test_close_shuts_down_owned_pool(self, rng):
        a = rng.standard_normal((150, 150))
        b = rng.standard_normal((150, 150))
        s = GemmSession(max_workers=2)
        s.multiply(a, b, schedule="tasks")
        pool = s._pool
        assert pool is not None
        s.close()
        assert s._pool is None
        with pytest.raises(RuntimeError):
            pool.run_all([lambda: None])
        # session stays usable: pool is lazily recreated
        assert np.allclose(s.multiply(a, b, schedule="tasks"), a @ b)
        s.close()


class TestParallelStats:
    def test_counters_accumulate(self, rng):
        a = rng.standard_normal((150, 150))
        b = rng.standard_normal((150, 150))
        with GemmSession(max_workers=2) as s:
            s.multiply(a, b)  # sequential: no parallel counters
            assert s.stats().parallel_executes == 0
            s.multiply(a, b, schedule="tasks:2")
            s.multiply(a, b, schedule="tasks:2")
            st = s.stats()
            assert st.parallel_executes == 2
            # depth-2 expansion: 7**2 products plus sums/combinations
            assert st.tasks_run >= 2 * 49
            assert st.worker_busy_seconds > 0.0
            assert 0.0 <= st.worker_utilization <= 1.0

    def test_plan_converts_through_shared_tables(self, rng):
        # Every plan holds the shared box geometry of its three operands,
        # with nothing per element, and repeats its result bit for bit.
        a = rng.standard_normal((513, 513))
        b = rng.standard_normal((513, 513))
        with GemmSession() as s:
            plan = s.plan(513, 513, 513)
            assert set(plan._tables) == {"a", "b", "c"}
            assert plan._tables["a"] is conversion_table(513, 513, 33, 33, 4)
            assert len(plan._tables["c"].boxes) <= 5 * 5
            ref = s.multiply(a, b)
            for _ in range(2):
                assert np.array_equal(s.multiply(a, b), ref)

    def test_pooled_bytes_cover_scratch_and_tables(self):
        with GemmSession(max_workers=2) as s:
            seq = s.plan(513, 513, 513)
            par = s.plan(513, 513, 513, schedule="tasks:2")
            assert par._tscratch is not None
            assert par.pooled_bytes > seq.pooled_bytes
            assert s.stats().bytes_pooled >= seq.pooled_bytes + par.pooled_bytes
