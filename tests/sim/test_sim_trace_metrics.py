"""Tests for repro.sim.trace and repro.sim.metrics."""

import pytest

from repro.sim.engine import simulate
from repro.sim.machine import MachineConfig
from repro.sim.metrics import (
    efficiency_series,
    overhead_breakdown,
    speedup_series,
)
from repro.sim.task import TaskGraph
from repro.sim.trace import Trace, TraceRecord
from repro.util.validate import ValidationError

IDEAL = MachineConfig(
    num_cores=4,
    smt_ways=1,
    task_overhead=0.0,
    steal_overhead=0.0,
)


def record(thread, start, end, kind="work", loop="L"):
    return TraceRecord(
        tid=0, name="t", kind=kind, loop=loop, thread=thread, start=start, end=end
    )


class TestTrace:
    def test_makespan(self):
        t = Trace(2)
        t.add(record(0, 0.0, 2.0))
        t.add(record(1, 1.0, 5.0))
        assert t.makespan == 5.0

    def test_busy_time_total_and_per_thread(self):
        t = Trace(2)
        t.add(record(0, 0.0, 2.0))
        t.add(record(1, 0.0, 3.0))
        assert t.busy_time() == 5.0
        assert t.busy_time(0) == 2.0

    def test_utilization(self):
        t = Trace(2)
        t.add(record(0, 0.0, 4.0))
        t.add(record(1, 0.0, 2.0))
        assert t.utilization() == pytest.approx(6.0 / 8.0)

    def test_empty_trace_full_utilization(self):
        assert Trace(4).utilization() == 1.0

    def test_time_by_kind_and_loop(self):
        t = Trace(1)
        t.add(record(0, 0.0, 1.0, kind="work", loop="adt"))
        t.add(record(0, 1.0, 1.5, kind="barrier", loop="adt"))
        assert t.time_by_kind() == {"work": 1.0, "barrier": 0.5}
        assert t.time_by_loop() == {"adt": 1.5}

    def test_gantt_renders_rows(self):
        t = Trace(2)
        t.add(record(0, 0.0, 1.0))
        out = t.gantt(width=20)
        assert out.startswith("T00|")
        assert "T01|" in out


class TestSpeedupEfficiency:
    def test_speedup_relative_to_first(self):
        assert speedup_series([1, 2, 4], [10.0, 5.0, 2.5]) == [1.0, 2.0, 4.0]

    def test_strong_efficiency(self):
        eff = efficiency_series([1, 2, 4], [10.0, 5.0, 2.5])
        assert eff == [1.0, 1.0, 1.0]

    def test_weak_efficiency(self):
        eff = efficiency_series([1, 2], [10.0, 12.5], weak=True)
        assert eff == [1.0, 0.8]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            speedup_series([1, 2], [1.0])

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValidationError):
            speedup_series([1], [0.0])


class TestOverheadBreakdown:
    def test_fractions_sum_to_one(self):
        g = TaskGraph()
        a = g.add("w", 4.0, kind="work")
        g.add("b", 1.0, [a], kind="barrier")
        res = simulate(g, IDEAL, 2, trace=True)
        frac = overhead_breakdown(res)
        assert sum(frac.values()) == pytest.approx(1.0)
        assert frac["idle"] > 0.0  # second thread idles the whole time

    def test_pure_work_single_thread(self):
        g = TaskGraph()
        g.add("w", 4.0, kind="work")
        res = simulate(g, IDEAL, 1, trace=True)
        frac = overhead_breakdown(res)
        assert frac["work"] == pytest.approx(1.0)
