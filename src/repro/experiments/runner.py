"""Run one backend on the Airfoil app: simulated and measured pipelines.

Simulated pipeline per (backend, mesh):

1. run the app in sim mode under the backend: loops execute in program
   order (numerics) and are recorded (loop log);
2. validate the numerics against the plain-numpy reference;
3. for each thread count, have the backend emit its task graph from the log
   and simulate it on the machine model.

Step 1/2 are thread-count independent (the logical execution is the same),
so a full thread sweep costs one functional run plus one simulation per P.

Measured pipeline (:func:`measure_backend`): the same app runs under
``mode="threads"`` on a real thread pool and the wall-clock time is taken
with ``perf_counter`` — the numbers Figs 15-19 would show on this host
rather than on the paper's machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from pathlib import Path

from repro.airfoil import AirfoilApp, AirfoilResult, ReferenceAirfoil, generate_mesh
from repro.airfoil.meshgen import AirfoilMesh
from repro.airfoil.validation import compare_states
from repro.backends.costs import LoopCostModel
from repro.experiments.config import ExperimentConfig
from repro.hpx.threadpool import PoolStats
from repro.obs.timing import TimingSummary
from repro.op2.config import RuntimeConfig
from repro.op2.runtime import LoopLog, Op2Runtime
from repro.sim.engine import SimResult, SimulationEngine
from repro.sim.task import TaskGraph


@dataclass
class BackendRun:
    """Everything one functional run produced."""

    backend: str
    mesh: AirfoilMesh
    result: AirfoilResult
    log: LoopLog
    runtime: Op2Runtime
    #: max relative deviation from the numpy reference, per field.
    validation: dict[str, float] = field(default_factory=dict)

    def emit_graph(
        self, config: ExperimentConfig, num_threads: int, cost_model: LoopCostModel
    ) -> TaskGraph:
        return self.runtime.backend.emit(
            self.log, config.machine, num_threads, cost_model
        )


def run_backend(
    backend: str,
    config: ExperimentConfig,
    mesh: AirfoilMesh | None = None,
    validate: bool = True,
) -> BackendRun:
    """Functional run of the Airfoil app under ``backend``."""
    if mesh is None:
        mesh = generate_mesh(**config.mesh_kwargs())
    rt = Op2Runtime(
        backend=backend,
        num_threads=4,  # sim values ignore it; emission takes its own count
        block_size=config.block_size,
    )
    previous = rt.activate()
    try:
        app = AirfoilApp(mesh)
        result = app.run(rt, config.niter)
    finally:
        rt.deactivate(previous)

    validation: dict[str, float] = {}
    if validate:
        ref = ReferenceAirfoil(mesh)
        ref.run(config.niter)
        validation = compare_states(app, ref, tol=1e-9)

    return BackendRun(
        backend=backend,
        mesh=mesh,
        result=result,
        log=rt.log,
        runtime=rt,
        validation=validation,
    )


@dataclass
class MeasuredRun:
    """Wall-clock measurement of one threaded run."""

    backend: str
    num_workers: int
    #: best-of-``repeats`` wall time of one full app run, in seconds.
    wall_seconds: float
    #: every repeat's wall time, in run order.
    times: list[float]
    result: AirfoilResult
    #: max relative deviation from the numpy reference, per field.
    validation: dict[str, float] = field(default_factory=dict)
    #: per-kernel timing summary of the last repeat (``timing=True`` runs).
    timing: TimingSummary | None = None
    #: Chrome-trace events written (``trace_path`` runs; 0 otherwise).
    trace_events: int = 0
    #: pool scheduling counters of the last repeat (joins, batches, ...).
    pool: "PoolStats | None" = None


def measure_backend(
    backend: str,
    config: ExperimentConfig,
    mesh: AirfoilMesh | None = None,
    num_workers: int = 1,
    repeats: int = 3,
    validate: bool = False,
    backend_options: dict | None = None,
    timing: bool = False,
    trace_path: str | Path | None = None,
) -> MeasuredRun:
    """Measured (``mode="threads"``) run of the Airfoil app under ``backend``.

    Each repeat builds a fresh app state and thread pool; the reported
    ``wall_seconds`` is the best repeat (standard benchmarking practice —
    the minimum is the least noise-contaminated estimate).

    ``timing=True`` attaches the last repeat's per-kernel summary;
    ``trace_path`` additionally records per-task events and writes the
    Chrome-trace JSON there.
    """
    if mesh is None:
        mesh = generate_mesh(**config.mesh_kwargs())
    times: list[float] = []
    app = None
    result = None
    rt = None
    for _ in range(max(1, repeats)):
        rt = Op2Runtime(
            backend=backend,
            num_threads=num_workers,
            block_size=config.block_size,
            config=RuntimeConfig(
                mode="threads",
                num_workers=num_workers,
                timing=timing,
                trace=trace_path is not None,
            ),
            backend_options=backend_options,
        )
        previous = rt.activate()
        try:
            app = AirfoilApp(mesh)
            start = perf_counter()
            result = app.run(rt, config.niter)
            times.append(perf_counter() - start)
        finally:
            rt.deactivate(previous)
            rt.close()

    validation: dict[str, float] = {}
    if validate:
        ref = ReferenceAirfoil(mesh)
        ref.run(config.niter)
        validation = compare_states(app, ref, tol=1e-9)

    assert result is not None and rt is not None
    summary = rt.timing_summary() if rt.obs is not None else None
    events = rt.export_trace(trace_path) if trace_path is not None else 0
    return MeasuredRun(
        backend=backend,
        num_workers=num_workers,
        wall_seconds=min(times),
        times=times,
        result=result,
        validation=validation,
        timing=summary,
        trace_events=events,
        pool=rt.pool_stats,
    )


def simulate_backend(
    run: BackendRun,
    config: ExperimentConfig,
    num_threads: int,
    cost_model: LoopCostModel | None = None,
    trace: bool = False,
) -> SimResult:
    """Simulated execution of a recorded run at ``num_threads``."""
    if cost_model is None:
        cost_model = LoopCostModel(jitter=config.cost_jitter)
    graph = run.emit_graph(config, num_threads, cost_model)
    engine = SimulationEngine(config.machine, num_threads)
    return engine.run(graph, collect_trace=trace)


def sweep(
    backend: str,
    config: ExperimentConfig,
    mesh: AirfoilMesh | None = None,
    validate: bool = True,
) -> tuple[BackendRun, dict[int, SimResult]]:
    """Functional run + simulation across the configured thread counts."""
    run = run_backend(backend, config, mesh, validate=validate)
    cost_model = LoopCostModel(jitter=config.cost_jitter)
    results = {
        p: simulate_backend(run, config, p, cost_model) for p in config.threads
    }
    return run, results
