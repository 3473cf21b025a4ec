"""The per-rank SPMD worker (runs inside each rank process).

Every rank process rebuilds its kernels and loop objects locally (kernel
closures do not pickle; the :class:`~repro.dist.plan.RankPlan` does), wires
its dats over the shared-memory segments the parent created, and executes
the canonical Airfoil timestep program
(:func:`repro.engine.airfoil.airfoil_timestep`) with real halo messages in
between. The schedule picks the program shape and the
``threads_per_rank``/schedule pair picks the executor:

========== ================ ==========================================
schedule   threads_per_rank executor
========== ================ ==========================================
blocking   1                serial (rank-per-process MPI baseline)
blocking   > 1              fork-join pool (MPI+OpenMP baseline)
overlapped 1                serial, program-ordered split loops
overlapped > 1              dependency-scheduled pool (HPX shape):
                            interior compute runs multithreaded under
                            the in-flight halo messages
========== ================ ==========================================

The split subsets partition each loop's iteration space exactly, and the
kernels/gather/scatter are byte-for-byte the single-rank machinery
(:func:`repro.backends.base.execute_loop` with an ``elements`` subset), so
every configuration assembles the same solution to rounding.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from time import perf_counter

from repro.airfoil.constants import FlowConstants
from repro.airfoil.kernels import make_kernels
from repro.dist.app import RankState, build_rank_state
from repro.dist.plan import RankPlan, split_boundary
from repro.engine import ProgramBindings, airfoil_timestep, make_executor
from repro.hpx.threadpool import ThreadPoolEngine
from repro.obs.recorder import TraceRecorder
from repro.obs.timing import KernelTiming
from repro.op2 import OpGlobal
from repro.procs.shm import AttachedRank, RankLayout
from repro.procs.transport import HaloTransport, RankChannels
from repro.util.validate import ValidationError

#: Valid procs schedules.
SCHEDULES = ("blocking", "overlapped")


@dataclass(frozen=True)
class RankSpec:
    """Everything one rank process needs, shipped at spawn (picklable)."""

    rank: int
    plan: RankPlan
    layout: RankLayout
    constants: FlowConstants
    niter: int
    schedule: str
    #: shared monotonic epoch: all rank recorders measure against the same
    #: zero so the merged trace's lanes line up.
    epoch: float
    #: intra-rank worker threads; 1 keeps the serial per-rank path.
    threads_per_rank: int = 1
    trace: bool = False
    timing: bool = False
    trace_path: str | None = None
    #: fault injection (tests / chaos runs): raise at this iteration.
    fail_at_iter: int | None = None


@dataclass
class RankReport:
    """What a rank sends back to the driver when it finishes."""

    rank: int
    wall_seconds: float
    rms: float
    comm: dict[str, int] = field(default_factory=dict)
    #: (nbytes, latency-seconds) per received message, for calibration.
    message_log: list[tuple[int, float]] = field(default_factory=list)
    #: per-kernel wall-clock aggregates (timing mode only).
    kernels: dict[str, KernelTiming] = field(default_factory=dict)
    #: per-thread busy seconds, keyed by recorder row (0 = rank main thread).
    busy: dict[int, float] = field(default_factory=dict)
    threads: int = 1
    trace_events: int = 0


class RankRunner:
    """One rank's engine session: program + bindings + executor."""

    def __init__(
        self,
        spec: RankSpec,
        state: RankState,
        transport: HaloTransport,
        recorder: TraceRecorder | None = None,
        pool: ThreadPoolEngine | None = None,
    ) -> None:
        if spec.schedule not in SCHEDULES:
            raise ValidationError(
                f"unknown schedule {spec.schedule!r}; use one of {SCHEDULES}"
            )
        self.spec = spec
        self.state = state
        self.transport = transport
        self.rec = recorder
        self.pool = pool
        self.program = airfoil_timestep(
            dist=True, overlap=spec.schedule == "overlapped"
        )
        self.bindings = ProgramBindings(
            loops=state.loops,
            subsets=split_boundary(spec.plan),
            arrays={"q": state.q, "adt": state.adt, "res": state.res},
            transport=transport,
            recorder=recorder,
            space_sizes={
                "cells": spec.plan.n_owned,
                "edges": spec.plan.edges_set.size,
            },
        )
        self.bindings.validate_for(self.program)
        self.executor = make_executor(spec.schedule, pool)
        self.iterations = 0

    def run(self) -> None:
        for i in range(self.spec.niter):
            if self.spec.fail_at_iter is not None and i == self.spec.fail_at_iter:
                raise RuntimeError(
                    f"injected failure on rank {self.spec.rank} at iteration {i}"
                )
            self.executor.run(self.program, self.bindings)
            self.iterations += 1


def worker_main(spec: RankSpec, channels: RankChannels, barrier, results) -> None:
    """Rank-process entry point: attach, build, synchronize, run, report.

    Any exception — including the injected test failures — is caught,
    formatted, and shipped to the driver as an ``("error", rank, tb)``
    message before the process exits nonzero; the driver cancels the peers
    and re-raises with this traceback embedded.
    """
    attached: AttachedRank | None = None
    pool: ThreadPoolEngine | None = None
    try:
        attached = AttachedRank(spec.layout)
        kernels = make_kernels(spec.constants)
        freestream = spec.constants.freestream()
        g_qinf = OpGlobal("qinf", 4, freestream)
        state = build_rank_state(
            spec.plan, kernels, g_qinf, freestream, arrays=attached.arrays
        )
        transport = HaloTransport(
            spec.rank, spec.plan.exports, spec.plan.imports, channels
        )
        rec: TraceRecorder | None = None
        if spec.trace or spec.timing:
            rec = TraceRecorder(events=spec.trace)
            rec.epoch = spec.epoch
        if spec.threads_per_rank > 1:
            pool = ThreadPoolEngine(spec.threads_per_rank)
            pool.recorder = rec
        runner = RankRunner(spec, state, transport, rec, pool)
        barrier.wait()
        t0 = perf_counter()
        runner.run()
        wall = perf_counter() - t0
        trace_events = 0
        if spec.trace_path is not None and rec is not None and rec.collect_events:
            from repro.obs.chrome import write_rank_trace

            trace_events = write_rank_trace(rec, spec.rank, spec.trace_path)
        report = RankReport(
            rank=spec.rank,
            wall_seconds=wall,
            rms=float(state.rms.value()),
            comm=transport.comm_counters(),
            message_log=transport.message_log(),
            kernels=dict(rec.kernels) if rec is not None else {},
            busy=dict(rec.summary().busy) if rec is not None else {},
            threads=spec.threads_per_rank,
            trace_events=trace_events,
        )
        results.put(("done", spec.rank, report))
    except BaseException:
        results.put(("error", spec.rank, traceback.format_exc()))
        raise SystemExit(1)
    finally:
        if pool is not None:
            pool.close()
        if attached is not None:
            attached.close()
