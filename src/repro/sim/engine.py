"""The event-driven list-scheduling simulation engine.

Schedules a :class:`~repro.sim.task.TaskGraph` onto ``num_threads`` hardware
threads of a :class:`~repro.sim.machine.MachineConfig`:

- a task with ``affinity=k`` runs only on thread ``k`` (fork-join static
  scheduling, the OpenMP model);
- a task with ``affinity=None`` runs on any idle thread, FIFO by readiness
  (HPX work stealing at the granularity the simulator cares about);
- every dispatch costs ``task_overhead``; executing a non-affine task on a
  thread other than the one that produced its first dependency adds
  ``steal_overhead`` (producer-consumer cache locality);
- a thread's execution *speed* scales task durations (SMT sharing).

The engine is deterministic: ties break by thread id and task id.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from repro.sim.machine import MachineConfig, thread_speeds
from repro.sim.task import TaskGraph, TaskGraphError
from repro.sim.trace import Trace, TraceRecord


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    makespan: float
    trace: Trace
    num_threads: int
    total_work: float
    critical_path: float
    tasks_executed: int
    steals: int


class SimulationEngine:
    """Event-driven simulator for one (graph, machine, threads) triple."""

    def __init__(self, config: MachineConfig, num_threads: int) -> None:
        self.config = config
        self.num_threads = int(num_threads)
        self.speeds = thread_speeds(config, self.num_threads)

    def run(self, graph: TaskGraph, collect_trace: bool = True) -> SimResult:
        graph.validate()
        tasks = graph.tasks
        n = len(tasks)
        succ = graph.successors()
        indeg = [len(t.deps) for t in tasks]

        for t in tasks:
            if t.affinity is not None and not 0 <= t.affinity < self.num_threads:
                raise TaskGraphError(
                    f"task {t.name!r} pinned to thread {t.affinity}, run has "
                    f"{self.num_threads} threads"
                )

        # Ready queues: one FIFO per pinned thread + one shared FIFO.
        pinned: list[deque[int]] = [deque() for _ in range(self.num_threads)]
        shared: deque[int] = deque()

        def make_ready(tid: int) -> None:
            aff = tasks[tid].affinity
            if aff is None:
                shared.append(tid)
            else:
                pinned[aff].append(tid)

        for tid in range(n):
            if indeg[tid] == 0:
                make_ready(tid)

        # producer[tid]: thread that executed the task's first dependency.
        producer = [-1] * n
        idle = set(range(self.num_threads))
        events: list[tuple[float, int, int, int]] = []  # (end, seq, thread, tid)
        seq = 0
        now = 0.0
        trace = Trace(self.num_threads)
        executed = 0
        steals = 0

        def dispatch() -> None:
            nonlocal seq, executed, steals
            # Deterministic: threads in id order; pinned work first.
            for thread in sorted(idle):
                tid: int | None = None
                if pinned[thread]:
                    tid = pinned[thread].popleft()
                elif shared:
                    tid = shared.popleft()
                if tid is None:
                    continue
                idle.discard(thread)
                task = tasks[tid]
                overhead = self.config.task_overhead
                if (
                    task.affinity is None
                    and producer[tid] >= 0
                    and producer[tid] != thread
                ):
                    overhead += self.config.steal_overhead
                    steals += 1
                duration = overhead + task.cost / self.speeds[thread]
                end = now + duration
                heapq.heappush(events, (end, seq, thread, tid))
                seq += 1
                executed += 1
                if collect_trace:
                    trace.add(
                        TraceRecord(
                            tid=tid,
                            name=task.name,
                            kind=task.kind,
                            loop=task.loop,
                            thread=thread,
                            start=now,
                            end=end,
                        )
                    )

        dispatch()
        makespan = 0.0
        while events:
            end, _, thread, tid = heapq.heappop(events)
            now = end
            makespan = max(makespan, end)
            idle.add(thread)
            for s in succ[tid]:
                if producer[s] == -1:
                    producer[s] = thread
                indeg[s] -= 1
                if indeg[s] == 0:
                    make_ready(s)
            # Drain simultaneous completions before dispatching, so all
            # successors ready at this instant compete fairly.
            while events and events[0][0] == now:
                end2, _, thread2, tid2 = heapq.heappop(events)
                idle.add(thread2)
                for s in succ[tid2]:
                    if producer[s] == -1:
                        producer[s] = thread2
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        make_ready(s)
            dispatch()

        if executed != n:
            stuck = [t.name for t in tasks if indeg[t.tid] > 0][:5]
            raise TaskGraphError(
                f"simulation stalled: {n - executed} tasks never ran "
                f"(first stuck: {stuck})"
            )

        return SimResult(
            makespan=makespan,
            trace=trace,
            num_threads=self.num_threads,
            total_work=graph.total_work(),
            critical_path=graph.critical_path(),
            tasks_executed=executed,
            steals=steals,
        )


def simulate(
    graph: TaskGraph, config: MachineConfig, num_threads: int, trace: bool = False
) -> SimResult:
    """Convenience one-shot simulation."""
    return SimulationEngine(config, num_threads).run(graph, collect_trace=trace)
