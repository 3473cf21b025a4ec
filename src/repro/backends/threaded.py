"""The loop-task core: how one ``op_par_loop`` becomes pool tasks.

Every real-thread execution path runs its loops through this module: the
``threads``-mode backends (fork-join ``openmp``/``foreach*`` directly, the
dependency-scheduled ``hpx_async``/``hpx_dataflow`` through
:mod:`repro.backends.scheduling`) and the pool-backed per-rank executors of
:mod:`repro.engine.executors`. The module owns five pieces:

- **decomposition** (:class:`LoopSpace`) — each color class of the plan,
  over the whole set or over a sorted subset, is split into chunks by the
  backend's chunker. A chunk makes exactly one ``execute_loop`` call: a
  slice when its blocks are adjacent, otherwise one read-only array of
  their element ids. Every pool task is thus one large call — the grain
  numpy needs to release the GIL for meaningful stretches. A space is
  built once per (plan, subset) and keeps each static split, so loops and
  timesteps reuse the same element arguments and, through them, the gather
  rows and scatter rounds the maps keep for them;
- **chunk body** (:func:`run_chunk`) — executes that call and returns the
  chunk's deferred global partials;
- **fork-join** (:func:`run_forkjoin`) — colors in sequence, one pool batch
  per color. The auto partitioner's serial-prefix chunk runs inline on the
  calling thread *before* the color's batch and is timed; the measured
  per-iteration cost sizes the remaining chunks (HPX ``auto_partitioner``
  semantics);
- **dependency submission** (:func:`submit_loop`) — chunks are released
  with ``submit_after`` as soon as their predecessors finish, colors are
  chained by inline gates, and the loop ends in an inline finalizer;
- **finalizer** (:func:`finish_loop`) — the one place a loop's deferred side
  effects happen: global MIN/MAX/INC partials are folded in chunk order
  (never completion order, so repeated runs with the same worker count are
  bit-identical), every distinct written dat is bumped once, and the loop's
  timing is recorded.

Why this is race-free:

- same-color blocks touch disjoint indirect-reduction rows (plan coloring,
  property-tested in ``tests/property/test_prop_threaded_race.py``), and a
  subset of a block increments a subset of the block's targets;
- direct writes target each chunk's own elements, which are disjoint by
  construction (chunks partition the class);
- globals are never written from chunk bodies (deferral above);
- dat version counters are bumped only by the finalizer.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.base import (
    apply_global_partials,
    bump_written_versions,
    execute_loop,
)
from repro.hpx.chunking import Chunk, Chunker
from repro.hpx.threadpool import PoolTask, ThreadPoolEngine
from repro.op2.args import Arg
from repro.op2.exceptions import PlanError
from repro.op2.parloop import ParLoop
from repro.op2.plan import Plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import TraceRecorder

#: What a chunk body returns: its start time on the recorder's clock (0.0
#: untraced) and its global partials in execution order.
ChunkResult = tuple[float, list[tuple[Arg, np.ndarray]]]


@dataclass(frozen=True)
class LoopChunk:
    """One pool task of a loop: the plan blocks it covers and its one call."""

    color: int
    index: int
    blocks: tuple[int, ...]
    #: the chunk's ``execute_loop`` element argument: a slice when its blocks
    #: are adjacent, otherwise one read-only array of their element ids.
    elements: slice | np.ndarray

    @property
    def runs(self) -> tuple[slice | np.ndarray]:
        """The chunk's ``execute_loop`` element arguments: always exactly one."""
        return (self.elements,)


class LoopSpace:
    """A plan's color classes over the whole set or over a sorted subset.

    ``bounds[b]`` is block ``b``'s ``[lo, hi)`` range in the space's index:
    element ids for the whole set, positions in ``subset`` for a subset.
    :attr:`classes` keeps every color class that holds at least one element
    of the space, restricted to the blocks that do.

    A space is built once per (plan, subset) — :meth:`of` for the whole set,
    the engine executors for rank subsets — and keeps each static split, so
    every loop and timestep reuses the same chunks, and with them the
    element arguments the maps' staging entries are keyed on.
    """

    def __init__(self, plan: Plan, subset: np.ndarray | None = None) -> None:
        blocks = plan.blocks
        if subset is None:
            self.bounds = [(b.start, b.stop) for b in blocks]
        else:
            subset = np.asarray(subset)
            if subset.size and np.any(np.diff(subset) < 0):
                raise PlanError("a loop's iteration subset must be sorted")
            lo = np.searchsorted(subset, [b.start for b in blocks]).tolist()
            hi = np.searchsorted(subset, [b.stop for b in blocks]).tolist()
            self.bounds = list(zip(lo, hi))
        self.subset = subset
        self.classes: list[tuple[int, list[int]]] = []
        for ci, class_blocks in enumerate(plan.classes):
            live = [bi for bi in class_blocks if self.bounds[bi][1] > self.bounds[bi][0]]
            if live:
                self.classes.append((ci, live))
        #: (chunker.static_key(), width) -> that split, built on first use.
        self.splits: dict[tuple, list[list[LoopChunk]]] = {}

    @staticmethod
    def of(plan: Plan) -> "LoopSpace":
        """The plan's whole-set space, built once and kept on the plan."""
        space = plan.derived.get("space")
        if space is None:
            space = plan.derived["space"] = LoopSpace(plan)
        return space

    def chunk(self, color: int, index: int, blocks: Sequence[int]) -> LoopChunk:
        """Merge ``blocks`` (one color, ascending) into one element argument."""
        spans = [self.bounds[bi] for bi in blocks]
        adjacent = all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        if adjacent:
            lo, hi = spans[0][0], spans[-1][1]
            if self.subset is None:
                return LoopChunk(color, index, tuple(blocks), slice(lo, hi))
            elements = self.subset[lo:hi]
        elif self.subset is None:
            elements = np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi in spans])
        else:
            elements = np.concatenate([self.subset[lo:hi] for lo, hi in spans])
        elements.setflags(write=False)
        return LoopChunk(color, index, tuple(blocks), elements)

    def split(self, chunker: Chunker, width: int) -> list[list[LoopChunk]]:
        """The static decomposition: per color class, its chunks in order.

        Kept per ``(chunker.static_key(), width)``; a chunker without a
        static key gets a fresh split every call.
        """
        key = chunker.static_key()
        chunks = None if key is None else self.splits.get((key, width))
        if chunks is None:
            chunks = [
                [
                    self.chunk(ci, k, blocks[c.start : c.stop])
                    for k, c in enumerate(chunker.chunks(len(blocks), width))
                ]
                for ci, blocks in self.classes
            ]
            if key is not None:
                self.splits[(key, width)] = chunks
        return chunks


def run_chunk(loop: ParLoop, chunk: LoopChunk, rec: "TraceRecorder | None") -> ChunkResult:
    """Chunk body: one ``execute_loop`` call, deferring globals and versions."""
    start = rec.now() if rec is not None else 0.0
    partials: list[tuple[Arg, np.ndarray]] = []
    execute_loop(loop, chunk.elements, global_sink=partials, bump_versions=False)
    return start, partials


def finish_loop(
    loop: ParLoop,
    results: list[ChunkResult],
    rec: "TraceRecorder | None",
    t_submit: float,
    ncolors: int,
    ntasks: int,
    prefix_s: float = 0.0,
) -> None:
    """Apply a finished loop's deferred side effects and record its timing.

    ``results`` are the chunk results in decomposition order, which is the
    fold order. The loop's ``total`` runs from its first chunk start to now;
    its ``latency`` from ``t_submit`` (when the loop was handed to the pool)
    to now — under dependency scheduling a loop can wait long before its
    first chunk is released, and that wait belongs to latency only.
    """
    partials = [p for _, chunk_partials in results for p in chunk_partials]
    t0 = rec.now() if rec is not None else 0.0
    apply_global_partials(partials)
    t1 = rec.now() if rec is not None else 0.0
    bump_written_versions(loop)
    if rec is None:
        return
    fold_s = 0.0
    if partials:
        fold_s = t1 - t0
        rec.span(f"{loop.name}.fold", "fold", loop.name, t0, t1, busy=True)
    end = rec.now()
    first = min((start for start, _ in results), default=t_submit)
    rec.span(loop.name, "loop", loop.name, t_submit, end)
    _count, task_s = rec.take_task_totals(loop.name)
    rec.record_loop(
        loop.name, end - first, ncolors, ntasks, task_s, prefix_s, fold_s,
        latency=end - t_submit,
    )


def run_forkjoin(
    pool: ThreadPoolEngine,
    loop: ParLoop,
    space: LoopSpace,
    chunker: Chunker,
    rec: "TraceRecorder | None" = None,
) -> None:
    """Run ``loop`` color by color, one fork-join pool batch per color.

    With a recorder, the calling thread records per-loop and per-color spans
    plus serial-prefix and fold attribution; the pool's workers record their
    own task spans.
    """
    t_submit = rec.now() if rec is not None else 0.0
    results: list[ChunkResult] = []
    ntasks = 0
    prefix_s = 0.0
    static = space.split(chunker, pool.num_workers) if chunker.static_key() is not None else None
    for i, (ci, blocks) in enumerate(space.classes):
        t_color = rec.now() if rec is not None else 0.0

        def run_prefix(c: Chunk) -> float:
            # HPX's auto partitioner: the measurement pass runs inline on the
            # caller before any parallel chunk is spawned, and its wall time
            # is what the chunker sizes the remaining chunks from.
            nonlocal prefix_s
            t0 = perf_counter()
            results.append(
                run_chunk(loop, space.chunk(ci, -1, blocks[c.start : c.stop]), rec)
            )
            elapsed = perf_counter() - t0
            if rec is not None:
                prefix_s += elapsed
                t1 = rec.now()
                rec.span(
                    f"{loop.name}.c{ci}.prefix", "prefix", loop.name,
                    t1 - elapsed, t1, color=ci, busy=True,
                )
            return elapsed

        if static is not None:
            work = static[i]
        else:
            work = [
                space.chunk(ci, k, blocks[c.start : c.stop])
                for k, c in enumerate(chunker.split(len(blocks), pool.num_workers, run_prefix))
                if not c.serial_prefix
            ]
        # run_batch returns in submission order only after every task
        # finished: the color barrier.
        results.extend(
            pool.run_batch(
                [lambda w=w: run_chunk(loop, w, rec) for w in work],
                loop=loop.name,
                color=ci,
            )
        )
        ntasks += len(work)
        if rec is not None:
            rec.span(f"{loop.name}.c{ci}", "color", loop.name, t_color, rec.now(), color=ci)
    finish_loop(loop, results, rec, t_submit, len(space.classes), ntasks, prefix_s)


def submit_loop(
    pool: ThreadPoolEngine,
    loop: ParLoop,
    chunks: list[list[LoopChunk]],
    deps: Sequence[PoolTask],
    rec: "TraceRecorder | None" = None,
    chunk_deps: Callable[[LoopChunk], list[PoolTask]] | None = None,
    final_deps: Sequence[PoolTask] = (),
) -> tuple[list[PoolTask], PoolTask]:
    """Submit a decomposed loop as dependency-released pool tasks.

    The first color's chunks wait for ``deps``; each later color waits for
    an inline gate on the previous one (colors are the correctness barrier
    for indirect increments), which carries ``deps`` transitively.
    ``chunk_deps(chunk)`` adds a chunk's own predecessors (block-level
    refinement). The inline finalizer waits for the last color — or for
    ``deps`` when there are no chunks — and for ``final_deps``. Nothing
    blocks here.

    Returns the chunk tasks in submission (= fold) order and the finalizer.
    """
    t_submit = rec.now() if rec is not None else 0.0
    tasks: list[PoolTask] = []
    prev = list(deps)
    for color_chunks in chunks:
        color_tasks = [
            pool.submit_after(
                lambda c=c: run_chunk(loop, c, rec),
                prev if chunk_deps is None else prev + chunk_deps(c),
                loop=loop.name,
                color=c.color,
                index=c.index,
            )
            for c in color_chunks
        ]
        tasks.extend(color_tasks)
        if len(color_tasks) == 1:
            prev = color_tasks
        else:
            prev = [pool.gate(color_tasks, loop=loop.name, color=color_chunks[0].color)]

    def finish() -> None:
        results = [t.value() for t in tasks]
        finish_loop(loop, results, rec, t_submit, len(chunks), len(tasks))

    final = pool.submit_after(finish, prev + list(final_deps), inline=True, loop=loop.name)
    return tasks, final
