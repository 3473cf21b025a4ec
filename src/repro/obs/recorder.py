"""Low-overhead monotonic event recorder for the measured (threads) path.

The recorder is the wall-clock counterpart of the simulator's
:class:`~repro.sim.trace.Trace`: per-task / per-color / per-loop spans on a
``perf_counter`` timebase, recorded live while real worker threads execute.
APEX does the same job for HPX's task scheduler; OP2's ``op_timing_output``
is the per-kernel aggregation that :meth:`TraceRecorder.summary` reproduces.

Design constraints:

- **disabled is free** — every hot-path hook is guarded by a single
  ``if rec is not None`` on the orchestrating thread; a runtime without
  tracing/timing enabled carries no recorder at all;
- **worker-side writes are cheap and safe** — task spans append to a plain
  list (atomic under the GIL) and fold their busy time into per-loop
  accumulators under one short lock per *task* (tasks are numpy-batch sized,
  so the lock is noise);
- **rows are stable** — each OS thread gets a row index in first-seen order;
  row 0 is the orchestrating thread, workers follow. Rows become ``tid``
  lanes in the Chrome trace.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter

from repro.obs.timing import KernelTiming, TimingSummary


@dataclass(frozen=True)
class ObsEvent:
    """One timed span, in seconds relative to the recorder's epoch."""

    name: str
    kind: str  # "loop" | "color" | "task" | "prefix" | "fold" | "release" | "wait"
    loop: str
    row: int  # 0 = orchestrating thread; workers in first-seen order
    start: float
    end: float
    color: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceRecorder:
    """Collects events and per-kernel aggregates for one threaded run."""

    def __init__(self, events: bool = True) -> None:
        #: False keeps only the aggregates (``--timing`` without ``--trace``).
        self.collect_events = bool(events)
        self.epoch = perf_counter()
        self.events: list[ObsEvent] = []
        self.kernels: dict[str, KernelTiming] = {}
        #: fork-join batches dispatched (orchestrator-side counter).
        self.batches = 0
        self._busy: dict[int, float] = {}  # row -> busy seconds
        self._tasks: dict[int, int] = {}  # row -> tasks executed
        self._loop_task_time: dict[str, float] = {}
        self._loop_task_count: dict[str, int] = {}
        self._rows: dict[int, int] = {}  # thread ident -> row
        self._row_names: dict[int, str] = {}
        self._first: float | None = None  # observed span bounds
        self._last: float = 0.0
        self._lock = threading.Lock()
        # Pin row 0 to the creating (orchestrating) thread now: its first
        # span() lands only after the first batch, by which time a worker
        # would otherwise have claimed row 0 and skewed busy attribution.
        self.row()

    # -- timebase and rows ---------------------------------------------------

    def now(self) -> float:
        """Monotonic seconds since the recorder was created."""
        return perf_counter() - self.epoch

    def row(self) -> int:
        """Stable row index of the calling thread (registered on first use)."""
        ident = threading.get_ident()
        row = self._rows.get(ident)
        if row is None:
            with self._lock:
                row = self._rows.get(ident)
                if row is None:
                    row = len(self._rows)
                    self._rows[ident] = row
                    self._row_names[row] = threading.current_thread().name
        return row

    def row_names(self) -> dict[int, str]:
        """Row index -> OS thread name, for trace lane labels."""
        with self._lock:
            return dict(self._row_names)

    # -- recording -----------------------------------------------------------

    def span(
        self,
        name: str,
        kind: str,
        loop: str,
        start: float,
        end: float,
        color: int = -1,
        busy: bool = False,
    ) -> None:
        """Record one orchestrator-side span (loop / color / prefix / fold)."""
        row = self.row()
        if busy:
            self._busy[row] = self._busy.get(row, 0.0) + (end - start)
        if self.collect_events:
            self.events.append(ObsEvent(name, kind, loop, row, start, end, color))

    def task_span(
        self, loop: str, color: int, index: int, start: float, end: float
    ) -> None:
        """Record one pool task; called on the worker thread that ran it."""
        row = self.row()
        with self._lock:
            self._busy[row] = self._busy.get(row, 0.0) + (end - start)
            self._tasks[row] = self._tasks.get(row, 0) + 1
            self._loop_task_time[loop] = (
                self._loop_task_time.get(loop, 0.0) + (end - start)
            )
            self._loop_task_count[loop] = self._loop_task_count.get(loop, 0) + 1
        if self.collect_events:
            self.events.append(
                ObsEvent(
                    f"{loop}.c{color}.t{index}", "task", loop, row, start, end, color
                )
            )

    def take_task_totals(self, loop: str) -> tuple[int, float]:
        """Drain the per-loop worker-side task totals (count, seconds).

        Called by the orchestrator after the loop's last color barrier, so
        every task of this invocation has already reported.
        """
        with self._lock:
            return (
                self._loop_task_count.pop(loop, 0),
                self._loop_task_time.pop(loop, 0.0),
            )

    def record_loop(
        self,
        name: str,
        wall: float,
        ncolors: int,
        ntasks: int,
        task_time: float = 0.0,
        prefix_time: float = 0.0,
        fold_time: float = 0.0,
        latency: float | None = None,
    ) -> None:
        """Fold one completed loop into the per-kernel aggregates.

        ``wall`` is the loop's time from its first chunk start to now, and
        ``latency`` (default ``wall``) its time since submission. The
        observed span starts at the earliest first-chunk start: under
        dependency scheduling, the first loop to finish need not be the
        first to start.

        Thread-safe: under dependency scheduling the caller is the loop's
        inline *finalizer* task, which runs on whichever worker completed
        the loop's last chunk — two loops can finish at the same instant.
        """
        with self._lock:
            kt = self.kernels.get(name)
            if kt is None:
                kt = self.kernels[name] = KernelTiming(name)
            kt.add(wall, ncolors, ntasks, task_time, prefix_time, fold_time, latency)
            end = self.now()
            if self._first is None or end - wall < self._first:
                self._first = end - wall
            self._last = end

    # -- reporting -----------------------------------------------------------

    @property
    def total_tasks(self) -> int:
        with self._lock:
            return sum(self._tasks.values())

    def summary(self, num_workers: int = 1, joins: int = 0) -> TimingSummary:
        """Snapshot the aggregates as an ``op_timing_output``-style summary."""
        first = self._first if self._first is not None else 0.0
        with self._lock:
            busy = dict(self._busy)
        return TimingSummary(
            kernels=dict(self.kernels),
            wall=max(0.0, self._last - first),
            busy=busy,
            num_workers=num_workers,
            batches=self.batches,
            joins=joins,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceRecorder events={len(self.events)} "
            f"kernels={len(self.kernels)} batches={self.batches}>"
        )
