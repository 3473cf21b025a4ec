"""Per-kernel wall-clock aggregation: the OP2-style ``op_timing_output`` table.

OP2's reference implementation prints a per-kernel table (count, total time,
bandwidth) at the end of every run; this module is the measured-mode
equivalent for the threads path. :class:`KernelTiming` accumulates one row per
``op_par_loop`` kernel; :class:`TimingSummary` snapshots all rows plus the
pool-level busy/idle attribution and renders the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.util.tables import Table


@dataclass
class KernelTiming:
    """Aggregated wall-clock behaviour of one kernel across its invocations.

    Times are in seconds. ``total``/``min``/``max`` measure each
    invocation from its first chunk start to its finalizer end (color
    barriers included); ``latency`` from the invocation's submission to its
    finalizer end, so it also holds the time a dependency-scheduled loop
    waited for its predecessors. ``task_time`` sums the worker-side
    execution time of every pool task the kernel spawned, so
    ``task_time / total`` approximates the kernel's effective parallelism.
    """

    name: str
    count: int = 0
    total: float = 0.0
    latency: float = 0.0
    min: float = math.inf
    max: float = 0.0
    colors: int = 0
    tasks: int = 0
    task_time: float = 0.0
    prefix_time: float = 0.0
    fold_time: float = 0.0

    def add(
        self,
        wall: float,
        ncolors: int,
        ntasks: int,
        task_time: float = 0.0,
        prefix_time: float = 0.0,
        fold_time: float = 0.0,
        latency: float | None = None,
    ) -> None:
        self.count += 1
        self.total += wall
        self.latency += wall if latency is None else latency
        self.min = wall if wall < self.min else self.min
        self.max = wall if wall > self.max else self.max
        self.colors = max(self.colors, ncolors)
        self.tasks += ntasks
        self.task_time += task_time
        self.prefix_time += prefix_time
        self.fold_time += fold_time

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class TimingSummary:
    """A snapshot of per-kernel timings plus pool-level attribution."""

    kernels: dict[str, KernelTiming]
    #: observed span (first loop start to last loop end), seconds.
    wall: float
    #: per-row busy seconds (row 0 = orchestrator, then workers).
    busy: dict[int, float] = field(default_factory=dict)
    num_workers: int = 1
    batches: int = 0
    #: pool-level joins: every point the orchestrator blocked on workers.
    #: Fork-join execution pays one per color class; dependency-scheduled
    #: execution pays one per application sync / finish.
    joins: int = 0
    #: halo-traffic counters (procs mode / distributed runs): message and
    #: byte counts per exchange primitive, in the shape of
    #: :meth:`repro.dist.exchange.HaloExchange.comm_counters`. Empty for
    #: single-process runs; rendered as an extra footer line otherwise so
    #: transport calibration can compare modeled vs real message counts.
    comm: dict[str, int] = field(default_factory=dict)

    @property
    def total_tasks(self) -> int:
        return sum(k.tasks for k in self.kernels.values())

    @property
    def worker_busy(self) -> float:
        """Busy seconds attributed to worker rows (excludes orchestrator)."""
        return sum(t for row, t in self.busy.items() if row != 0)

    def utilization(self) -> float:
        """Worker busy time over the available worker-seconds of the span."""
        if self.wall <= 0.0 or self.num_workers <= 0:
            return 0.0
        return self.worker_busy / (self.wall * self.num_workers)

    def render(self) -> str:
        """The ``op_timing_output`` table, times in milliseconds."""
        table = Table(
            [
                "kernel",
                "count",
                "total ms",
                "latency ms",
                "avg ms",
                "min ms",
                "max ms",
                "colors",
                "tasks",
                "task ms",
                "prefix ms",
                "fold ms",
            ]
        )
        for kt in sorted(self.kernels.values(), key=lambda k: -k.total):
            table.add_row(
                [
                    kt.name,
                    kt.count,
                    kt.total * 1e3,
                    kt.latency * 1e3,
                    kt.mean * 1e3,
                    (0.0 if kt.count == 0 else kt.min) * 1e3,
                    kt.max * 1e3,
                    kt.colors,
                    kt.tasks,
                    kt.task_time * 1e3,
                    kt.prefix_time * 1e3,
                    kt.fold_time * 1e3,
                ]
            )
        idle = max(0.0, self.wall * self.num_workers - self.worker_busy)
        footer = (
            f"span {self.wall * 1e3:.3f} ms on {self.num_workers} worker(s): "
            f"{self.total_tasks} tasks in {self.batches} batches, "
            f"{self.joins} joins, "
            f"busy {self.worker_busy * 1e3:.3f} ms / idle {idle * 1e3:.3f} ms "
            f"({self.utilization():.1%} utilization)"
        )
        out = table.render() + "\n" + footer
        if self.comm:
            out += (
                "\nhalo: "
                f"{self.comm.get('messages_updated', 0)} update msg / "
                f"{self.comm.get('bytes_updated', 0) / 1024:.1f} KiB, "
                f"{self.comm.get('messages_accumulated', 0)} accumulate msg / "
                f"{self.comm.get('bytes_accumulated', 0) / 1024:.1f} KiB"
            )
        return out
