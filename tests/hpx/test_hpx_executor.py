"""Tests for repro.hpx.executor."""

import pytest

from repro.hpx.executor import TaskExecutor
from repro.hpx.future import FutureError


class TestSubmission:
    def test_submit_returns_future_with_result(self):
        ex = TaskExecutor(2)
        assert ex.submit(lambda a, b: a + b, 2, 3).get() == 5

    def test_post_is_fire_and_forget(self):
        ex = TaskExecutor(2)
        log = []
        ex.post(lambda: log.append(1))
        ex.drain()
        assert log == [1]

    def test_pending_counts_queued_tasks(self):
        ex = TaskExecutor(2)
        for _ in range(5):
            ex.post(lambda: None)
        assert ex.pending() == 5
        ex.drain()
        assert ex.pending() == 0

    def test_invalid_worker_count(self):
        with pytest.raises(Exception):
            TaskExecutor(0)

    def test_explicit_worker_assignment(self):
        ex = TaskExecutor(4)
        ex.submit(lambda: None, worker=2)
        assert len(ex._queues[2]) == 1


class TestExecutionOrder:
    def test_tasks_spawned_round_robin(self):
        ex = TaskExecutor(3)
        for _ in range(6):
            ex.post(lambda: None)
        assert [len(q) for q in ex._queues] == [2, 2, 2]

    def test_drain_runs_nested_spawns(self):
        ex = TaskExecutor(2)
        log = []

        def outer():
            log.append("outer")
            ex.post(lambda: log.append("inner"))

        ex.post(outer)
        ex.drain()
        assert log == ["outer", "inner"]

    def test_deterministic_across_runs(self):
        def run():
            ex = TaskExecutor(3)
            log = []
            for i in range(10):
                ex.post(lambda i=i: log.append(i))
            ex.drain()
            return log

        assert run() == run()


class TestWorkStealing:
    def test_steals_counted(self):
        ex = TaskExecutor(4)
        # All work lands on worker 0; other workers must steal.
        for _ in range(8):
            ex.post(lambda: None, worker=0)
        ex.drain()
        assert ex.stats.steals > 0

    def test_no_steals_when_balanced_single_worker(self):
        ex = TaskExecutor(1)
        for _ in range(4):
            ex.post(lambda: None)
        ex.drain()
        assert ex.stats.steals == 0


class TestRunUntil:
    def test_deadlock_detection(self):
        ex = TaskExecutor(2)
        with pytest.raises(FutureError, match="deadlock|ran out"):
            ex.run_until(lambda: False)

    def test_predicate_true_immediately_runs_nothing(self):
        ex = TaskExecutor(2)
        ex.post(lambda: None)
        ex.run_until(lambda: True)
        assert ex.pending() == 1


class TestStats:
    def test_counters_track_activity(self):
        ex = TaskExecutor(2)
        for _ in range(5):
            ex.post(lambda: None)
        ex.drain()
        assert ex.stats.tasks_spawned == 5
        assert ex.stats.tasks_executed == 5
        assert sum(ex.stats.per_worker_executed) == 5

    def test_max_queue_depth_observed(self):
        ex = TaskExecutor(1)
        for _ in range(7):
            ex.post(lambda: None)
        assert ex.stats.max_queue_depth == 7
