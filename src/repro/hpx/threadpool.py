"""Real OS-thread pool used by the ``threads`` execution mode.

This is the measured counterpart of the cooperative
:class:`~repro.hpx.executor.TaskExecutor`: same submit/join vocabulary, but
tasks run on a ``concurrent.futures.ThreadPoolExecutor`` so wall-clock
behaviour reflects the actual hardware. Numpy's batch kernels release the GIL
for their inner loops, which is what makes chunked parallel loops scale on
multicore hosts.

Two scheduling primitives are offered:

- :meth:`ThreadPoolEngine.run_batch` — the fork-join primitive: submit a
  batch, join it in submission order. One batch per color class is the
  OpenMP/``for_each`` execution shape.
- :meth:`ThreadPoolEngine.submit_after` — the dependency primitive behind
  the async/dataflow backends' measured mode: a task is *released* to the
  pool the moment its predecessor tasks complete, with no global join
  anywhere. Whichever thread finishes the last predecessor performs the
  release, so consumer chunks start while unrelated producer chunks are
  still running — the paper's barrier elimination, on real threads.

Determinism contract: joins (:meth:`ThreadPoolEngine.wait_all`) always
return results in *submission* order, never completion order — callers
combine floating-point partials (global MIN/MAX/INC reductions) in a fixed
order, so repeated runs with the same worker count are bit-identical.
Dependency-released tasks preserve the same property as long as every pair
of conflicting tasks is ordered by a dependency edge (the scheduler's job).

Observability: attaching a :class:`~repro.obs.recorder.TraceRecorder` to
:attr:`ThreadPoolEngine.recorder` makes every pool task report a worker-side
timed span, every dependency release a ``release`` marker, and every join a
``wait`` span; with no recorder attached the execution path is unchanged.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.hpx.future import Future
from repro.util.validate import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import TraceRecorder


# PoolTask lifecycle. WAITING tasks have unfinished dependencies; RELEASED
# tasks are queued on (or running inline off) the executor; terminal states
# are DONE / FAILED / CANCELLED.
_WAITING = 0
_RELEASED = 1
_RUNNING = 2
_DONE = 3
_FAILED = 4
_CANCELLED = 5

_TERMINAL = (_DONE, _FAILED, _CANCELLED)


class TaskCancelled(RuntimeError):
    """Raised when waiting on a task discarded by :meth:`ThreadPoolEngine.cancel_all`."""


@dataclass
class PoolStats:
    """Counters describing pool activity since construction/reset.

    ``joins`` counts pool-level waits (``run_batch`` / ``wait_all`` /
    ``wait_for``): every point where the orchestrating thread blocked on
    worker completion. ``color_joins`` is the subset that implements a
    per-color fork-join barrier — the overhead the dependency-scheduled
    backends exist to eliminate, so tests assert on the difference.
    """

    tasks_submitted: int = 0
    tasks_failed: int = 0
    batches: int = 0
    max_batch_width: int = 0
    joins: int = 0
    color_joins: int = 0
    tasks_cancelled: int = 0

    def reset(self) -> None:
        self.tasks_submitted = 0
        self.tasks_failed = 0
        self.batches = 0
        self.max_batch_width = 0
        self.joins = 0
        self.color_joins = 0
        self.tasks_cancelled = 0


def chain_errors(errors: Sequence[BaseException]) -> BaseException:
    """Link every secondary error onto the first one's ``__context__`` chain.

    A multi-worker batch can fail on several tasks at once; re-raising only
    the first would silently discard the rest. Appending the others to the
    implicit-context chain keeps the caller-visible exception type unchanged
    while tracebacks (and ``raise ... from`` tooling) show every failure.
    Already-linked or duplicate exception objects are skipped so the chain
    can never cycle.
    """
    first = errors[0]
    seen = {id(first)}
    node = first
    while node.__context__ is not None:
        seen.add(id(node.__context__))
        node = node.__context__
    for exc in errors[1:]:
        if id(exc) in seen:
            continue
        node.__context__ = exc
        seen.add(id(exc))
        node = exc
        while node.__context__ is not None:
            if id(node.__context__) in seen:
                node.__context__ = None
                break
            seen.add(id(node.__context__))
            node = node.__context__
    return first


class PoolTask:
    """One unit of work scheduled via :meth:`ThreadPoolEngine.submit_after`.

    ``released_seq`` / ``started_seq`` / ``done_seq`` are engine-global
    sequence numbers stamped under the scheduling lock at each transition;
    ``started_seq > dep.done_seq`` for every dependency is the release-order
    invariant the property tests assert.
    """

    __slots__ = (
        "fn", "deps", "inline", "loop", "color", "index", "created",
        "_state", "_unfinished", "_children", "_result", "_error", "_event",
        "released_seq", "started_seq", "done_seq",
    )

    def __init__(
        self,
        fn: Callable[[], Any] | None,
        deps: tuple["PoolTask", ...],
        inline: bool,
        loop: str,
        color: int,
        index: int,
    ) -> None:
        self.fn = fn
        self.deps = deps
        #: inline tasks (gates, loop finalizers) run on whichever thread
        #: completed their last dependency instead of a pool round-trip.
        self.inline = inline
        self.loop = loop
        self.color = color
        self.index = index
        self.created = 0.0
        self._state = _WAITING
        self._unfinished = 0
        self._children: list[PoolTask] = []
        self._result: Any = None
        self._error: BaseException | None = None
        self._event = threading.Event()
        self.released_seq = -1
        self.started_seq = -1
        self.done_seq = -1

    def done(self) -> bool:
        """True once the task reached a terminal state."""
        return self._state in _TERMINAL

    def failed(self) -> bool:
        return self._error is not None

    def value(self) -> Any:
        """The result of a task known to be done (no blocking, no re-raise)."""
        assert self.done(), "value() on an unfinished task"
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = ["waiting", "released", "running", "done", "failed", "cancelled"]
        label = self.loop or "task"
        return f"<PoolTask {label}.c{self.color}.t{self.index} {states[self._state]}>"


class PoolFuture(Future):
    """A loop future satisfied by a :class:`PoolTask` instead of the executor.

    Returned by the dependency-scheduled backends' ``run_loop``: the
    future resolves when the loop's finalizer task completes, so the
    application's ``rt.sync(...)`` placement — not a per-loop barrier — is
    what actually orders the program. ``get`` blocks the calling OS thread
    (counted as a pool-level join) rather than driving the cooperative
    executor.
    """

    __slots__ = ("_task", "_engine")

    def __init__(self, task: PoolTask, engine: "ThreadPoolEngine", name: str = "") -> None:
        super().__init__(None, name=name)
        self._task = task
        self._engine = engine

    def is_ready(self) -> bool:
        return self._task.done()

    def has_exception(self) -> bool:
        return self._task.failed()

    def get(self) -> Any:
        return self._engine.wait_for(self._task, label=self.name)


class ThreadPoolEngine:
    """A fixed-width pool of real worker threads with ordered joins.

    The underlying executor is created lazily (a runtime configured for
    ``threads`` mode but never running a loop costs nothing) and can be
    re-created after :meth:`close` — runtimes survive a ``finish``/``close``
    cycle, as the cooperative executor does.
    """

    def __init__(self, num_workers: int = 1) -> None:
        check_positive("num_workers", num_workers)
        self.num_workers = int(num_workers)
        self._pool: ThreadPoolExecutor | None = None
        self.stats = PoolStats()
        #: optional wall-clock recorder; ``None`` keeps the hot path bare.
        self.recorder: "TraceRecorder | None" = None
        #: keep completed tasks' ``deps`` tuples instead of clearing them.
        #: Diagnostic only (the property tests walk the recorded graph);
        #: long-running production loops must leave this off or every task
        #: ever scheduled stays reachable through its predecessors.
        self.keep_history = False
        self._lock = threading.Lock()
        self._pending: set[PoolTask] = set()
        self._seq = 0

    # -- lifecycle -----------------------------------------------------------

    def _ensure(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="op2-worker"
            )
        return self._pool

    @property
    def active(self) -> bool:
        """True while OS threads are (or may be) alive."""
        return self._pool is not None

    def close(self) -> None:
        """Join and release the worker threads (idempotent).

        Unfinished scheduled tasks are cancelled first: a dependency that
        completes after shutdown could otherwise try to submit its released
        children to a dead executor.
        """
        if self._pool is not None:
            with self._lock:
                dangling = bool(self._pending)
            if dangling:
                self.cancel_all()
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ThreadPoolEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- dependency scheduling ----------------------------------------------

    def submit_after(
        self,
        thunk: Callable[[], Any] | None,
        deps: Sequence[PoolTask] = (),
        *,
        loop: str = "",
        color: int = -1,
        index: int = -1,
        inline: bool = False,
    ) -> PoolTask:
        """Schedule ``thunk`` to run once every task in ``deps`` completed.

        There is no join anywhere in this path: when the last dependency
        finishes, the completing thread releases the task to the pool (or
        runs it in place when ``inline=True`` — used for gates and loop
        finalizers, which are too small for a pool round-trip). A ``None``
        thunk is a pure gate. If any dependency failed, the task fails with
        that error without running, and the failure cascades to its own
        dependents in turn.

        Returns the :class:`PoolTask`; wait on it with :meth:`wait_for` /
        :meth:`wait_all` or chain further ``submit_after`` calls.
        """
        task = PoolTask(thunk, tuple(deps), inline, loop, color, index)
        rec = self.recorder
        if rec is not None:
            task.created = rec.now()
        with self._lock:
            self._pending.add(task)
            unfinished = 0
            for dep in task.deps:
                if dep._state in _TERMINAL:
                    continue
                dep._children.append(task)
                unfinished += 1
            task._unfinished = unfinished
        if unfinished == 0:
            self._dispatch([task])
        return task

    def gate(
        self,
        deps: Sequence[PoolTask],
        *,
        loop: str = "",
        color: int = -1,
    ) -> PoolTask:
        """A pure synchronization point: done when every task in ``deps`` is."""
        return self.submit_after(None, deps, loop=loop, color=color, inline=True)

    def _dispatch(self, ready: list[PoolTask]) -> None:
        """Release ready tasks; run inline ones here, iteratively.

        Completions of inline tasks can make further tasks ready; those are
        processed on an explicit worklist rather than by recursion, so a long
        chain of gates (e.g. thousands of timesteps scheduled between two
        ``finish`` calls) cannot overflow the stack.
        """
        stack = ready
        while stack:
            task = stack.pop()
            with self._lock:
                if task._state != _WAITING:
                    continue
                task._state = _RELEASED
                self._seq += 1
                task.released_seq = self._seq
            error = self._dep_failure(task)
            if error is not None:
                stack.extend(self._settle(task, None, error, ran=False))
                continue
            self._mark_release(task)
            if task.fn is None:
                stack.extend(self._settle(task, None, None, ran=False))
            elif task.inline:
                result, exc = self._execute(task)
                stack.extend(self._settle(task, result, exc, ran=True))
            else:
                self.stats.tasks_submitted += 1
                self._ensure().submit(self._run, task)

    @staticmethod
    def _dep_failure(task: PoolTask) -> BaseException | None:
        """First (in dependency order) error among the task's predecessors."""
        for dep in task.deps:
            if dep._error is not None:
                return dep._error
        return None

    def _mark_release(self, task: PoolTask) -> None:
        rec = self.recorder
        if rec is not None and rec.collect_events and task.loop:
            rec.span(
                f"{task.loop}.c{task.color}.t{task.index}.release",
                "release", task.loop, task.created, rec.now(), color=task.color,
            )

    def _execute(self, task: PoolTask) -> tuple[Any, BaseException | None]:
        with self._lock:
            task._state = _RUNNING
            self._seq += 1
            task.started_seq = self._seq
        rec = self.recorder
        timed = rec is not None and not task.inline
        start = rec.now() if timed else 0.0
        try:
            result, error = task.fn(), None  # type: ignore[misc]
        except BaseException as exc:  # noqa: BLE001 - stored, re-raised at joins
            result, error = None, exc
        if timed:
            rec.task_span(task.loop, task.color, task.index, start, rec.now())
        return result, error

    def _settle(
        self,
        task: PoolTask,
        result: Any,
        error: BaseException | None,
        ran: bool,
    ) -> list[PoolTask]:
        """Record a completion; return the children it made ready."""
        ready: list[PoolTask] = []
        with self._lock:
            task._result = result
            task._error = error
            task._state = _DONE if error is None else _FAILED
            self._seq += 1
            task.done_seq = self._seq
            self._pending.discard(task)
            children, task._children = task._children, []
            if not self.keep_history:
                task.deps = ()
            for child in children:
                child._unfinished -= 1
                if child._unfinished == 0:
                    ready.append(child)
        if error is not None and ran:
            self.stats.tasks_failed += 1
        task._event.set()
        return ready

    def _run(self, task: PoolTask) -> None:
        """Worker-thread entry: execute, then release whatever became ready."""
        result, error = self._execute(task)
        self._dispatch(self._settle(task, result, error, ran=True))

    def cancel_all(self) -> int:
        """Discard every unreleased task and wait out the in-flight ones.

        Cancelled tasks fail with :class:`TaskCancelled`; already-released
        tasks are allowed to finish (no worker may still be mutating shared
        dats after this returns). Returns the number cancelled.
        """
        with self._lock:
            waiting = [t for t in self._pending if t._state == _WAITING]
        cancelled = 0
        for task in waiting:
            with self._lock:
                if task._state != _WAITING:
                    continue
                task._state = _CANCELLED
                task._error = TaskCancelled(
                    f"pool task {task.loop or '<anonymous>'} cancelled"
                )
                self._seq += 1
                task.done_seq = self._seq
                self._pending.discard(task)
                children, task._children = task._children, []
                for child in children:
                    # A child left waiting is in (or will race into) our
                    # snapshot and gets cancelled itself; never released.
                    child._unfinished -= 1
            task._event.set()
            cancelled += 1
        self.stats.tasks_cancelled += cancelled
        while True:
            with self._lock:
                inflight = [
                    t for t in self._pending if t._state in (_RELEASED, _RUNNING)
                ]
            if not inflight:
                break
            for task in inflight:
                task._event.wait()
        return cancelled

    # -- joins ---------------------------------------------------------------

    def wait_for(self, task: PoolTask, *, label: str = "") -> Any:
        """Block the calling OS thread until ``task`` completes; re-raise errors.

        Counts as one pool-level join (the measured equivalent of a
        ``future.get()``), recorded as a ``wait`` span when tracing.
        """
        self.stats.joins += 1
        rec = self.recorder
        t0 = rec.now() if rec is not None else 0.0
        task._event.wait()
        if rec is not None:
            rec.span(
                f"{label or task.loop or 'task'}.wait", "wait", task.loop,
                t0, rec.now(),
            )
        if task._error is not None:
            raise task._error
        return task._result

    def wait_all(
        self,
        tasks: Sequence[PoolTask],
        *,
        loop: str = "",
        color_join: bool = False,
    ) -> list[Any]:
        """Join every task; results in submission order; errors chained.

        All tasks are waited for even when one fails — no worker may still
        be mutating shared state after control returns — and the first error
        (in list order) is re-raised with any further failures attached to
        its ``__context__`` chain (see :func:`chain_errors`).

        ``color_join=True`` marks this join as a per-color fork-join barrier
        in :class:`PoolStats` — the counter the dependency-scheduled
        backends are asserted to keep at zero.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        self.stats.joins += 1
        if color_join:
            self.stats.color_joins += 1
        rec = self.recorder
        t0 = rec.now() if rec is not None else 0.0
        results: list[Any] = []
        errors: list[BaseException] = []
        for task in tasks:
            task._event.wait()
            if task._error is not None:
                errors.append(task._error)
                results.append(None)
            else:
                results.append(task._result)
        if rec is not None:
            rec.span(f"{loop or 'pool'}.wait", "wait", loop, t0, rec.now())
        if errors:
            raise chain_errors(errors)
        return results

    # -- fork-join batches ---------------------------------------------------

    def run_batch(
        self,
        thunks: Sequence[Callable[[], Any]],
        *,
        loop: str = "",
        color: int = -1,
    ) -> list[Any]:
        """Run every thunk on the pool; join; results in submission order.

        This is the fork-join primitive of the threads mode: one batch per
        color class (or per loop for direct loops), built on
        :meth:`submit_after` with no dependencies plus an ordered
        :meth:`wait_all`. A batch labelled with a color (``color >= 0``)
        counts as a per-color join in :class:`PoolStats`.

        ``loop``/``color`` label the batch's task spans when a recorder is
        attached; they carry no cost otherwise.
        """
        if not thunks:
            return []
        rec = self.recorder
        if rec is not None:
            rec.batches += 1
        self.stats.batches += 1
        if len(thunks) > self.stats.max_batch_width:
            self.stats.max_batch_width = len(thunks)
        tasks = [
            self.submit_after(thunk, loop=loop, color=color, index=i)
            for i, thunk in enumerate(thunks)
        ]
        return self.wait_all(tasks, loop=loop, color_join=color >= 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.active else "idle"
        return f"<ThreadPoolEngine workers={self.num_workers} {state}>"
