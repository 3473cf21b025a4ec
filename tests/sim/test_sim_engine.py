"""Tests for repro.sim.engine: the event-driven list scheduler."""

import pytest

from repro.sim.engine import simulate
from repro.sim.machine import MachineConfig
from repro.sim.task import TaskGraph, TaskGraphError

#: A machine with zero overheads: makespans become exact hand-computable.
IDEAL = MachineConfig(
    num_cores=4,
    smt_ways=1,
    task_overhead=0.0,
    steal_overhead=0.0,
    fork_overhead=0.0,
    chunk_spawn_overhead=0.0,
    barrier_base=0.0,
    barrier_per_thread=0.0,
    join_base=0.0,
    join_per_thread=0.0,
)


def chain(costs, affinity=None):
    g = TaskGraph()
    prev = None
    for i, c in enumerate(costs):
        prev = g.add(f"t{i}", c, [prev] if prev is not None else [], affinity=affinity)
    return g


class TestBasicScheduling:
    def test_single_task(self):
        g = TaskGraph()
        g.add("only", 5.0)
        assert simulate(g, IDEAL, 1).makespan == pytest.approx(5.0)

    def test_chain_serializes(self):
        g = chain([1.0, 2.0, 3.0])
        assert simulate(g, IDEAL, 4).makespan == pytest.approx(6.0)

    def test_independent_tasks_parallelize(self):
        g = TaskGraph()
        for i in range(4):
            g.add(f"t{i}", 2.0)
        assert simulate(g, IDEAL, 4).makespan == pytest.approx(2.0)

    def test_more_tasks_than_threads(self):
        g = TaskGraph()
        for i in range(8):
            g.add(f"t{i}", 1.0)
        assert simulate(g, IDEAL, 4).makespan == pytest.approx(2.0)

    def test_empty_graph(self):
        assert simulate(TaskGraph(), IDEAL, 2).makespan == 0.0


class TestAffinity:
    def test_pinned_tasks_serialize_on_thread(self):
        g = TaskGraph()
        for i in range(4):
            g.add(f"t{i}", 1.0, affinity=0)
        assert simulate(g, IDEAL, 4).makespan == pytest.approx(4.0)

    def test_pinned_to_distinct_threads_parallel(self):
        g = TaskGraph()
        for t in range(4):
            g.add(f"t{t}", 3.0, affinity=t)
        assert simulate(g, IDEAL, 4).makespan == pytest.approx(3.0)

    def test_affinity_out_of_range_rejected(self):
        g = TaskGraph()
        g.add("t", 1.0, affinity=7)
        with pytest.raises(TaskGraphError, match="pinned"):
            simulate(g, IDEAL, 4)

    def test_mixed_pinned_and_free(self):
        g = TaskGraph()
        g.add("pinned", 4.0, affinity=0)
        for i in range(3):
            g.add(f"free{i}", 4.0)
        assert simulate(g, IDEAL, 4).makespan == pytest.approx(4.0)


class TestOverheadsAndSpeeds:
    def test_task_overhead_added(self):
        m = IDEAL.with_(task_overhead=0.5)
        g = chain([1.0, 1.0])
        assert simulate(g, m, 1).makespan == pytest.approx(3.0)

    def test_smt_threads_run_slower(self):
        m = MachineConfig(
            num_cores=1,
            smt_ways=2,
            smt_efficiency=0.5,
            task_overhead=0.0,
            steal_overhead=0.0,
        )
        g = TaskGraph()
        g.add("a", 1.0)
        g.add("b", 1.0)
        # Two threads share one core at 0.5 efficiency: each task takes 2.
        assert simulate(g, m, 2).makespan == pytest.approx(2.0)

    def test_steal_overhead_for_cross_thread_consumption(self):
        m = IDEAL.with_(steal_overhead=1.0)
        g = TaskGraph()
        a = g.add("producer", 1.0, affinity=0)
        g.add("consumer", 1.0, [a])  # free task, produced by thread 0
        res = simulate(g, m, 2)
        # Consumer runs on thread 0 (first idle in id order) -> no steal.
        assert res.steals == 0
        assert res.makespan == pytest.approx(2.0)


class TestDependencies:
    def test_diamond_respects_deps(self):
        g = TaskGraph()
        top = g.add("top", 1.0)
        left = g.add("left", 2.0, [top])
        right = g.add("right", 2.0, [top])
        g.add("bottom", 1.0, [left, right])
        assert simulate(g, IDEAL, 2).makespan == pytest.approx(4.0)

    def test_makespan_at_least_critical_path(self):
        g = TaskGraph()
        a = g.add("a", 3.0)
        g.add("b", 4.0, [a])
        for i in range(6):
            g.add(f"x{i}", 1.0)
        res = simulate(g, IDEAL, 4)
        assert res.makespan >= g.critical_path()

    def test_makespan_at_most_serial_work(self):
        g = TaskGraph()
        for i in range(10):
            g.add(f"t{i}", float(i + 1))
        res = simulate(g, IDEAL, 3)
        assert res.makespan <= g.total_work() + 1e-9


class TestResultFields:
    def test_counts_and_bounds(self):
        g = chain([1.0, 1.0, 1.0])
        res = simulate(g, IDEAL, 2)
        assert res.tasks_executed == 3
        assert res.total_work == pytest.approx(3.0)
        assert res.critical_path == pytest.approx(3.0)

    def test_trace_collected_on_request(self):
        g = chain([1.0, 1.0])
        res = simulate(g, IDEAL, 1, trace=True)
        assert len(res.trace.records) == 2

    def test_determinism(self):
        g = TaskGraph()
        for i in range(20):
            g.add(f"t{i}", float((i * 7) % 5 + 1), deps=[i - 1] if i % 3 == 0 and i else [])
        a = simulate(g, IDEAL, 3).makespan
        b = simulate(g, IDEAL, 3).makespan
        assert a == b


class TestMonotonicity:
    def test_more_threads_never_slower_ideal_forkjoin(self):
        # With zero overheads and free tasks, adding threads cannot hurt.
        g = TaskGraph()
        for i in range(40):
            g.add(f"t{i}", float((i % 4) + 1))
        times = [simulate(g, IDEAL.with_(num_cores=p), p).makespan for p in (1, 2, 4)]
        assert times[0] >= times[1] >= times[2]
