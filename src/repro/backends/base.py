"""Backend interface and the shared gather/compute/scatter execution core.

Every backend ultimately runs kernels through :func:`execute_loop`:

1. **gather** — for each argument, materialize a per-element batch buffer:
   direct args view (slice) or ``take`` rows of the dat, indirect args
   ``take`` the rows their map column addresses, reduction args get
   identity-initialized buffers;
2. **compute** — invoke the vectorized kernel on the batch (or the elemental
   kernel row by row);
3. **scatter** — write results back: assignment for WRITE/RW, duplicate-free
   *rounds* for indirect INC/MIN/MAX (round ``r`` combines the ``r``-th
   contribution to each row, so every row sees its contributions in element
   order, bit-identical to ``ufunc.at``), and associative combination for
   global reductions.

The gather rows and scatter rounds of a map column depend only on the
element argument, so for persistent element arguments (slices, read-only id
arrays) they are computed once and kept on the map (:class:`Targets`,
:func:`staged_targets`).

This factorization makes the numerical result of every backend identical by
construction; backends differ only in how the iteration space is cut up and
ordered — which is precisely the paper's experimental variable.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.op2.access import Access
from repro.op2.args import Arg
from repro.op2.dat import OpGlobal
from repro.op2.exceptions import Op2Error
from repro.op2.parloop import ParLoop

if TYPE_CHECKING:  # pragma: no cover
    from repro.hpx.future import Future
    from repro.op2.plan import Plan
    from repro.op2.runtime import Op2Runtime
    from repro.sim.machine import MachineConfig
    from repro.sim.task import TaskGraph
    from repro.op2.runtime import LoopLog


class Targets:
    """The rows one map column addresses for one ``execute_loop`` call.

    ``rows`` is the gather index, in element order. :meth:`rounds` splits the
    call's positions into duplicate-free groups for reduction scatters:
    round ``r`` holds the ``r``-th occurrence of every row, in element order.
    Applying the rounds in sequence feeds each row its contributions in
    exactly the order ``ufunc.at`` would, so results are bit-identical to it,
    while every round is a plain ``take`` / combine / assign.
    """

    __slots__ = ("rows", "_rounds", "_owner")

    def __init__(self, rows: np.ndarray, owner: weakref.ref | None = None) -> None:
        self.rows = rows
        self._rounds: list[tuple[np.ndarray, np.ndarray | slice]] | None = None
        #: weak reference to the read-only element array this entry is keyed
        #: on; its callback drops the entry when the array dies.
        self._owner = owner

    def rounds(self) -> list[tuple[np.ndarray, np.ndarray | slice]]:
        """``(rows, positions)`` per round; computed once, then kept."""
        if self._rounds is None:
            self._rounds = duplicate_free_rounds(self.rows)
        return self._rounds


def duplicate_free_rounds(rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | slice]]:
    """Split positions ``0..n-1`` of ``rows`` into rounds of distinct rows.

    Round ``r`` is ``(rows[pos], pos)`` with ``pos`` the positions holding the
    ``r``-th occurrence of their row, ascending. With no repeated row the one
    round is ``(rows, slice(None))``, so the scatter reads the buffer as is.
    """
    n = len(rows)
    if n == 0:
        return []
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    if first.all():
        return [(rows, slice(None))]
    starts = np.flatnonzero(first)
    occurrence = np.empty(n, dtype=np.intp)
    occurrence[order] = np.arange(n) - np.repeat(starts, np.diff(starts, append=n))
    pos = np.argsort(occurrence, kind="stable")
    by_round = rows[pos]
    out = []
    lo = 0
    for count in np.bincount(occurrence).tolist():
        out.append((by_round[lo : lo + count], pos[lo : lo + count]))
        lo += count
    return out


def staged_targets(arg: Arg, elements: np.ndarray | slice) -> Targets:
    """The :class:`Targets` of indirect ``arg`` for ``elements``.

    Slices and read-only element arrays name persistent iteration spaces
    (whole sets, plan blocks, the loop-task core's chunks, rank subsets), so
    their entry is built once and kept on the map (:attr:`OpMap.staging`);
    an entry keyed on an array lives as long as that array. A writeable
    array is caller-owned and may change, so it gets a fresh, unkept entry.
    """
    m = arg.map_
    assert m is not None
    if isinstance(elements, slice):
        start, stop, _ = elements.indices(m.from_set.size)
        key: tuple = (arg.idx, start, stop)
    elif not elements.flags.writeable:
        key = (arg.idx, id(elements))
    else:
        return Targets(m.values[elements, arg.idx])
    cache = m.staging
    entry = cache.get(key)
    if entry is None:
        owner = None
        if not isinstance(elements, slice):
            owner = weakref.ref(elements, lambda _r: cache.pop(key, None))
        entry = cache[key] = Targets(np.ascontiguousarray(m.values[elements, arg.idx]), owner)
    return entry


def _gather_rows(data: np.ndarray, tgt: Targets | np.ndarray | slice) -> np.ndarray:
    """A private copy of the rows ``tgt`` addresses."""
    if isinstance(tgt, slice):
        return data[tgt].copy()
    return data.take(tgt.rows if isinstance(tgt, Targets) else tgt, axis=0)


def gather_args(
    loop: ParLoop, elements: np.ndarray | slice, n: int
) -> tuple[list[np.ndarray], list[tuple[Arg, Any, np.ndarray]]]:
    """Build kernel input buffers; returns (buffers, scatter work list)."""
    buffers: list[np.ndarray] = []
    writebacks: list[tuple[Arg, Any, np.ndarray]] = []
    for arg in loop.args:
        if arg.is_global:
            gbl = arg.dat
            assert isinstance(gbl, OpGlobal)
            if arg.access is Access.READ:
                buf = gbl.data  # shared read-only constant
            elif arg.access is Access.INC:
                buf = np.zeros((n, gbl.dim), dtype=gbl.data.dtype)
            elif arg.access is Access.MIN:
                buf = np.full((n, gbl.dim), np.inf, dtype=gbl.data.dtype)
            elif arg.access is Access.MAX:
                buf = np.full((n, gbl.dim), -np.inf, dtype=gbl.data.dtype)
            else:  # pragma: no cover - blocked in op_arg_gbl
                raise Op2Error(f"unsupported global access {arg.access}")
            buffers.append(buf)
            if arg.access is not Access.READ:
                writebacks.append((arg, None, buf))
            continue

        dat = arg.dat
        tgt = elements if arg.is_direct else staged_targets(arg, elements)
        if arg.access is Access.READ:
            # a view for direct slices, a ``take`` copy otherwise
            buf = dat.data[tgt] if isinstance(tgt, slice) else _gather_rows(dat.data, tgt)
        elif arg.access is Access.RW:
            buf = _gather_rows(dat.data, tgt)  # private copy, scattered back
        elif arg.access is Access.WRITE:
            buf = np.empty((n, dat.dim), dtype=dat.data.dtype)
        elif arg.access is Access.INC:
            buf = np.zeros((n, dat.dim), dtype=dat.data.dtype)
        elif arg.access is Access.MIN:
            buf = np.full((n, dat.dim), np.inf, dtype=dat.data.dtype)
        elif arg.access is Access.MAX:
            buf = np.full((n, dat.dim), -np.inf, dtype=dat.data.dtype)
        else:  # pragma: no cover - exhaustive
            raise Op2Error(f"unsupported access {arg.access}")
        buffers.append(buf)
        if arg.access.writes:
            writebacks.append((arg, tgt, buf))
    return buffers, writebacks


#: combining ufunc of each dat reduction access.
_COMBINE = {Access.INC: np.add, Access.MIN: np.minimum, Access.MAX: np.maximum}


def scatter_args(
    writebacks: list[tuple[Arg, Any, np.ndarray]],
    global_sink: list[tuple[Arg, np.ndarray]] | None = None,
) -> None:
    """Write kernel outputs back into dats/globals.

    When ``global_sink`` is given, global reductions are *not* applied to the
    shared ``OpGlobal`` storage; instead the batch-reduced partial is appended
    to the sink. Threaded execution uses this to keep concurrent tasks from
    racing on globals and to combine partials in a fixed (deterministic)
    order on the calling thread.

    Indirect reductions apply their :meth:`Targets.rounds` one after the
    other, so a row reached several times in one call combines its
    contributions in element order.
    """
    for arg, tgt, buf in writebacks:
        if arg.is_global:
            gbl = arg.dat
            assert isinstance(gbl, OpGlobal)
            if global_sink is not None:
                if arg.access is Access.INC:
                    global_sink.append((arg, buf.sum(axis=0)))
                elif arg.access is Access.MIN:
                    global_sink.append((arg, buf.min(axis=0)))
                elif arg.access is Access.MAX:
                    global_sink.append((arg, buf.max(axis=0)))
                continue
            if arg.access is Access.INC:
                gbl.data += buf.sum(axis=0)
            elif arg.access is Access.MIN:
                np.minimum(gbl.data, buf.min(axis=0), out=gbl.data)
            elif arg.access is Access.MAX:
                np.maximum(gbl.data, buf.max(axis=0), out=gbl.data)
            continue
        data = arg.dat.data
        if arg.access in (Access.WRITE, Access.RW):
            data[tgt.rows if isinstance(tgt, Targets) else tgt] = buf
            continue
        combine = _COMBINE[arg.access]
        if not isinstance(tgt, Targets):
            # direct: the call's own elements, no row repeats
            data[tgt] = combine(data[tgt], buf)
            continue
        for rows, pos in tgt.rounds():
            vals = data.take(rows, axis=0)
            combine(vals, buf[pos] if isinstance(pos, slice) else buf.take(pos, axis=0), out=vals)
            data[rows] = vals


def apply_global_partials(partials: list[tuple[Arg, np.ndarray]]) -> None:
    """Fold deferred global-reduction partials into their ``OpGlobal``s.

    Partials are combined strictly in list order; threaded execution builds
    the list in task-submission order, which makes MIN/MAX/INC reductions
    deterministic regardless of worker scheduling.
    """
    for arg, part in partials:
        gbl = arg.dat
        assert isinstance(gbl, OpGlobal)
        if arg.access is Access.INC:
            gbl.data += part
        elif arg.access is Access.MIN:
            np.minimum(gbl.data, part, out=gbl.data)
        elif arg.access is Access.MAX:
            np.maximum(gbl.data, part, out=gbl.data)


def bump_written_versions(loop: ParLoop) -> None:
    """Bump the version of each *distinct* written dat exactly once.

    A dat passed through two args of one loop (e.g. ``res`` via two map
    columns) must not be double-bumped: dependence invalidation counts
    writes per loop, not per argument.
    """
    seen: set[int] = set()
    for arg in loop.args:
        if not arg.is_global and arg.access.writes and id(arg.dat) not in seen:
            seen.add(id(arg.dat))
            arg.dat.bump_version()


def execute_loop(
    loop: ParLoop,
    elements: np.ndarray | slice | None = None,
    mode: str = "vectorized",
    *,
    global_sink: list[tuple[Arg, np.ndarray]] | None = None,
    bump_versions: bool = True,
) -> None:
    """Run ``loop`` over ``elements`` (default: the whole set).

    ``mode="vectorized"`` uses the kernel's numpy batch implementation;
    ``mode="elemental"`` applies the scalar kernel row by row (reference
    semantics; used by tests and tiny meshes).

    ``global_sink``/``bump_versions`` support threaded execution: global
    partials can be collected instead of applied (see :func:`scatter_args`)
    and dat version bumps deferred to the orchestrating thread.
    """
    if elements is None:
        elements = slice(0, loop.set_.size)
    if isinstance(elements, slice):
        start, stop, _ = elements.indices(loop.set_.size)
        n = max(0, stop - start)
    else:
        n = len(elements)
    if n == 0:
        return
    buffers, writebacks = gather_args(loop, elements, n)

    if mode == "vectorized":
        if not loop.kernel.has_vectorized:
            raise Op2Error(
                f"kernel {loop.kernel.name!r} has no vectorized form; "
                f"use mode='elemental'"
            )
        loop.kernel.vectorized(*buffers)
    elif mode == "elemental":
        gbl_read = [a.is_global and a.access is Access.READ for a in loop.args]
        for k in range(n):
            row_args = [
                buf if is_const else buf[k]
                for buf, is_const in zip(buffers, gbl_read)
            ]
            loop.kernel.elemental(*row_args)
    else:
        raise Op2Error(f"unknown execution mode {mode!r}")

    scatter_args(writebacks, global_sink=global_sink)
    if bump_versions:
        bump_written_versions(loop)


def execute_loop_by_plan(loop: ParLoop, plan: "Plan", mode: str = "vectorized") -> None:
    """Execute block by block in color order (validates plan machinery)."""
    for color_class in plan.classes:
        for b in color_class:
            blk = plan.blocks[b]
            execute_loop(loop, slice(blk.start, blk.stop), mode=mode)


class Backend(ABC):
    """One loop-parallelization strategy: threads-mode execution + emission.

    In ``sim`` mode the runtime runs every loop in program order itself and
    :mod:`repro.sim` times the graph :meth:`emit` builds from the loop log,
    so a backend's own execution path is the real-thread one.
    """

    #: registry key; subclasses override.
    name: str = "abstract"
    #: True when loops return futures the application may sync on.
    asynchronous: bool = False

    def on_attach(self, rt: "Op2Runtime") -> None:
        """Hook: called once when a runtime adopts this backend."""

    def _thread_chunker(self, rt: "Op2Runtime"):
        """Decomposition policy for real-thread execution (threads mode).

        The default — an even split of each color class across workers —
        matches OpenMP's static schedule; backends with their own chunking
        story (for_each auto/static) override this.
        """
        from repro.hpx.chunking import GuessChunkSize

        return GuessChunkSize()

    def run_loop(
        self, rt: "Op2Runtime", loop: ParLoop, plan: "Plan", loop_id: int
    ) -> "Future | None":
        """Execute one loop on the runtime's real thread pool.

        Color classes run as sequential fork-join batches of the loop-task
        core (:func:`repro.backends.threaded.run_forkjoin`); blocks of one
        color execute concurrently (they write disjoint rows by plan
        coloring). Synchronous backends return ``None``; the dependency-
        scheduled backends override this to return the loop's future.
        """
        from repro.backends.threaded import LoopSpace, run_forkjoin

        run_forkjoin(
            rt.thread_pool, loop, LoopSpace.of(plan), self._thread_chunker(rt), rt.obs
        )
        return None

    def finalize(self, rt: "Op2Runtime") -> None:
        """Complete outstanding asynchronous work (no-op for sync backends)."""

    def cancel(self, rt: "Op2Runtime") -> None:
        """Drop backend-side scheduling state after an aborted session.

        Called instead of :meth:`finalize` when the session body raised.
        Backends holding dependency schedulers override this so a runtime
        reused by a later session does not replay stale work.
        """

    @abstractmethod
    def emit(
        self,
        log: "LoopLog",
        machine: "MachineConfig",
        num_threads: int,
        cost_model: "Any",
    ) -> "TaskGraph":
        """Emit the simulator task graph for a recorded run at ``num_threads``."""
