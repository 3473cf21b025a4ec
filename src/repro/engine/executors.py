"""Pluggable executors: run one loop program against bound resources.

A :class:`ProgramBindings` is everything a program needs at runtime — the
rank's :class:`~repro.op2.parloop.ParLoop` objects keyed by loop name, the
subset id arrays keyed by subset name, the raw field arrays and transport
for exchange steps, and an optional recorder. Three executors consume the
same (program, bindings) pair. This module owns only the *program walk* and
the program's derived edges; every pooled loop step runs through the
loop-task core (:mod:`repro.backends.threaded`), the same decomposition,
fork-join, dependency submission and finalizer the threads-mode backends
use.

:class:`SerialExecutor`
    program order on the calling thread — the rank-per-process baseline
    (``threads_per_rank=1``), byte-identical to the old hand-written
    drivers;
:class:`ForkJoinExecutor`
    each loop step runs through the core's fork-join routine and joins
    before the next step — the MPI+OpenMP shape (a barrier per color,
    blocking exchanges on the orchestrator);
:class:`DependencyExecutor`
    the whole program is scheduled up front through the core's dependency
    submission, each step's first color waiting on the finalizers of the
    step's derived predecessors; exchange waits occupy one worker while
    every step with no path from a ``halo``/``chan`` token keeps computing
    underneath — the HPX-dataflow shape, measured.

Determinism contract (all executors): global MIN/MAX/INC partials are
folded in static chunk order, never completion order; conflicting steps are
ordered by derived edges; chunk decomposition depends only on (plan,
subset). Repeated runs with the same configuration are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backends.base import apply_global_partials  # noqa: F401 - patched by perfbench/layers.py
from repro.backends.base import execute_loop
from repro.backends.threaded import LoopSpace, run_forkjoin, submit_loop
from repro.engine.program import ExchangeStep, LoopProgram, LoopStep
from repro.hpx.chunking import GuessChunkSize
from repro.hpx.threadpool import PoolTask, ThreadPoolEngine
from repro.obs.recorder import TraceRecorder
from repro.op2.parloop import ParLoop
from repro.op2.plan import DEFAULT_BLOCK_SIZE, Plan, build_plan
from repro.util.validate import ValidationError


@dataclass
class ProgramBindings:
    """Runtime resources a program executes against (one rank's view)."""

    loops: dict[str, ParLoop]
    subsets: dict[str, np.ndarray] = field(default_factory=dict)
    #: field name -> storage array, for exchange steps.
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: object providing ``update_start`` / ``accumulate_blocking`` / ... each
    #: taking a list of field arrays; ``None`` is valid for exchange-free
    #: programs.
    transport: Any = None
    recorder: TraceRecorder | None = None
    #: iteration-space sizes keyed like ``LoopProgram.partitions``, enabling
    #: exact-partition validation of the subset split.
    space_sizes: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Subsets are fixed for the bindings' lifetime. Read-only views say
        # so, which lets the maps keep their gather rows and scatter rounds
        # (repro.backends.base.staged_targets) across timesteps.
        self.subsets = {name: _read_only(ids) for name, ids in self.subsets.items()}

    def elements(self, step: LoopStep) -> np.ndarray | None:
        if step.subset is None:
            return None
        try:
            return self.subsets[step.subset]
        except KeyError:
            raise ValidationError(
                f"program step {step.label!r} needs subset "
                f"{step.subset!r}; bindings have {sorted(self.subsets)}"
            ) from None

    def exchange(self, step: ExchangeStep) -> None:
        if self.transport is None:
            raise ValidationError(
                f"program has exchange step {step.label!r} but the bindings "
                "carry no transport"
            )
        fn = getattr(self.transport, step.method)
        fn([self.arrays[name] for name in step.fields])

    def validate_for(self, program: LoopProgram) -> None:
        """Check loop coverage, that each declared partition is exact, and
        (given the ``cells`` size) that every indirect argument stays inside
        its footprint's regions."""
        missing = [n for n in program.loop_names() if n not in self.loops]
        if missing:
            raise ValidationError(f"bindings missing loops: {missing}")
        for space, names in program.partitions.items():
            parts = []
            for name in names:
                if name not in self.subsets:
                    raise ValidationError(
                        f"bindings missing subset {name!r} of space {space!r}"
                    )
                parts.append(np.asarray(self.subsets[name]))
            merged = np.concatenate(parts) if parts else np.empty(0, np.int64)
            if np.unique(merged).size != merged.size:
                raise ValidationError(
                    f"subsets of space {space!r} overlap: {names}"
                )
            size = self.space_sizes.get(space)
            if size is not None and not np.array_equal(
                np.sort(merged), np.arange(size, dtype=merged.dtype)
            ):
                raise ValidationError(
                    f"subsets {names} do not partition space {space!r} "
                    f"of size {size}"
                )
        if "cells" in self.space_sizes:
            self._check_reach(program)

    def _check_reach(self, program: LoopProgram) -> None:
        """Every indirect argument's real targets lie in its footprint's regions.

        A step's region tokens for a dat (``q:bnd``, ``q:halo``) are derived
        from the shape's reach table; here each map column, restricted to the
        step's subset, is checked against them on this rank's numbering:
        ``halo`` rows lie past the owned cells, ``bnd`` rows are the
        ``boundary_cells`` subset, ``int`` rows the other owned ones and
        ``own`` both.
        """
        n_owned = self.space_sizes["cells"]
        labels: np.ndarray | None = None
        checked: set[tuple] = set()
        for step in dict.fromkeys(program.steps):
            if not isinstance(step, LoopStep):
                continue
            tokens = step.reads + step.writes + step.incs
            elements = self.elements(step)
            for arg in self.loops[step.name].args:
                regions = [t.split(":")[1] for t in tokens if t.startswith(f"{arg.dat.name}:")]
                key = (arg.map_, arg.idx, step.subset, tuple(regions))
                if arg.map_ is None or not regions or key in checked:
                    continue
                checked.add(key)
                if labels is None:
                    labels = np.full(arg.map_.to_set.size, 2, dtype=np.int8)
                    labels[:n_owned] = 1
                    labels[self.subsets.get("boundary_cells", [])] = 0
                allowed = np.zeros(3, dtype=bool)
                allowed[[c for r in regions for c in _REGION_CODES[r]]] = True
                column = arg.map_.values[:, arg.idx]
                rows = column if elements is None else column[elements]
                bad = np.flatnonzero(~allowed[labels[rows]])
                if bad.size:
                    row = int(rows[bad[0]])
                    raise ValidationError(
                        f"loop {step.name!r} over subset {step.subset!r}: dat "
                        f"{arg.dat.name!r} via {arg.map_.name}[{arg.idx}] reaches "
                        f"row {row} ({_REGIONS[labels[row]]}), outside "
                        f"its footprint regions {regions}"
                    )


#: Region of each local cell row, by code, and the codes a footprint region names.
_REGIONS = ("bnd", "int", "halo")
_REGION_CODES = {"bnd": (0,), "int": (1,), "halo": (2,), "own": (0, 1)}


def _read_only(ids: np.ndarray) -> np.ndarray:
    view = np.asarray(ids).view()
    view.setflags(write=False)
    return view


def _run_exchange(step: ExchangeStep, b: ProgramBindings) -> None:
    """Run an exchange step on the calling thread, traced as historic spans."""
    rec = b.recorder
    if rec is None:
        b.exchange(step)
        return
    if step.phase == "blocking":
        label, kind = f"halo.{step.op}", "wait"
    else:
        label, kind = step.label, "release" if step.phase == "start" else "wait"
    t0 = rec.now()
    b.exchange(step)
    rec.span(label, kind, "exchange", t0, rec.now())


class SerialExecutor:
    """Program order on the calling thread; the ``threads_per_rank=1`` path."""

    name = "serial"

    def run(self, program: LoopProgram, b: ProgramBindings) -> None:
        rec = b.recorder
        for step in program.steps:
            if isinstance(step, ExchangeStep):
                _run_exchange(step, b)
                continue
            loop = b.loops[step.name]
            elements = b.elements(step)
            if elements is not None and len(elements) == 0:
                continue
            if rec is None:
                execute_loop(loop, elements)
                continue
            t0 = rec.now()
            execute_loop(loop, elements)
            end = rec.now()
            label = step.name if step.subset is None else f"{step.name}.part"
            rec.span(label, "loop", step.name, t0, end, busy=True)
            rec.record_loop(step.name, end - t0, 1, 1)


#: Pooled executors split each color class evenly across the workers
#: (OpenMP's static schedule), like the threads-mode backends' default.
CHUNKER = GuessChunkSize()


class _PooledExecutor:
    """A pool plus the per-step loop spaces (plan over step subset), cached.

    Spaces depend only on static inputs, so the decomposition — and
    therefore the reduction fold order — is identical across runs.
    """

    def __init__(
        self, pool: ThreadPoolEngine, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        self.pool = pool
        self.block_size = int(block_size)
        self._plans: dict[str, Plan] = {}
        self._spaces: dict[tuple[str, str | None], LoopSpace] = {}

    def _space(self, step: LoopStep, b: ProgramBindings) -> LoopSpace:
        key = (step.name, step.subset)
        space = self._spaces.get(key)
        if space is None:
            loop = b.loops[step.name]
            plan = self._plans.get(step.name)
            if plan is None:
                plan = self._plans[step.name] = build_plan(
                    loop.set_, list(loop.args), self.block_size
                )
            space = self._spaces[key] = LoopSpace(plan, b.elements(step))
        return space


class ForkJoinExecutor(_PooledExecutor):
    """Per-loop fork-join on a thread pool; blocking exchanges in between.

    This is the measured MPI+OpenMP baseline shape: colors run as barrier-
    separated batches, the orchestrating thread performs the exchanges, and
    nothing overlaps a wait.
    """

    name = "forkjoin"

    def run(self, program: LoopProgram, b: ProgramBindings) -> None:
        for step in program.steps:
            if isinstance(step, ExchangeStep):
                _run_exchange(step, b)
                continue
            space = self._space(step, b)
            if space.classes:
                run_forkjoin(self.pool, b.loops[step.name], space, CHUNKER, rec=b.recorder)


class DependencyExecutor(_PooledExecutor):
    """Whole-program dependency scheduling on a thread pool.

    Every loop step is submitted through the core (chunk tasks per color,
    an inline gate per color, an inline finalizer) with its first color
    waiting on the *finalizers of the step's derived predecessors* —
    nothing else. Exchange steps run as single pool tasks, so a wait
    occupies one worker while released compute fills the rest:
    communication hides behind computation exactly where the program's
    footprints allow it.
    """

    name = "dependency"

    def __init__(
        self, pool: ThreadPoolEngine, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        super().__init__(pool, block_size)
        self._edges: dict[int, tuple[tuple[int, ...], ...]] = {}

    def run(self, program: LoopProgram, b: ProgramBindings) -> None:
        edges = self._edges.get(id(program))
        if edges is None:
            edges = self._edges[id(program)] = program.edges()
        pool = self.pool
        finals: list[PoolTask] = []
        for i, step in enumerate(program.steps):
            deps = [finals[j] for j in edges[i]]
            if isinstance(step, ExchangeStep):
                final = pool.submit_after(lambda s=step: b.exchange(s), deps, loop=step.label)
            else:
                space = self._space(step, b)
                if space.classes:
                    chunks = space.split(CHUNKER, pool.num_workers)
                    _tasks, final = submit_loop(
                        pool, b.loops[step.name], chunks, "vectorized", deps, b.recorder
                    )
                else:
                    final = pool.gate(deps, loop=step.label)
            finals.append(final)
        # One join per timestep: the program's tail steps (and, transitively,
        # everything else) must be done before the next program instance is
        # scheduled against the same storage.
        pool.wait_all(finals, loop=program.name)


def make_executor(
    schedule: str,
    pool: ThreadPoolEngine | None,
    block_size: int = DEFAULT_BLOCK_SIZE,
):
    """Executor selection policy for the per-rank engine.

    No pool (``threads_per_rank=1``) is the serial baseline; with a pool the
    ``blocking`` schedule gets the fork-join (MPI+OpenMP) shape and the
    ``overlapped`` schedule the dependency-scheduled (HPX-dataflow) shape.
    """
    if pool is None:
        return SerialExecutor()
    if schedule == "blocking":
        return ForkJoinExecutor(pool, block_size)
    return DependencyExecutor(pool, block_size)
