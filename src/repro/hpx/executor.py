"""The cooperative work-stealing task executor.

Models HPX's thread-pool scheduler: ``num_workers`` logical workers each own a
double-ended task queue; a worker pops from the back of its own queue (LIFO,
cache-friendly in the real runtime) and steals from the front of a victim's
queue when its own is empty (FIFO, steals the oldest/largest work first).

All workers are multiplexed on the calling OS thread in round-robin order —
one task step per worker per round — which gives a deterministic interleaving
that mimics parallel progress. Counters (:class:`ExecutorStats`) expose
spawn/steal/execution behaviour for tests and for the simulator's calibration.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.hpx.future import Future, FutureError
from repro.util.validate import check_positive


@dataclass
class ExecutorStats:
    """Counters describing scheduler activity since construction/reset."""

    tasks_spawned: int = 0
    tasks_executed: int = 0
    steals: int = 0
    failed_steals: int = 0
    rounds: int = 0
    max_queue_depth: int = 0
    per_worker_executed: list[int] = field(default_factory=list)

    def reset(self, num_workers: int) -> None:
        self.tasks_spawned = 0
        self.tasks_executed = 0
        self.steals = 0
        self.failed_steals = 0
        self.rounds = 0
        self.max_queue_depth = 0
        self.per_worker_executed = [0] * num_workers


@dataclass
class _Task:
    fn: Callable[[], Any]
    future: Future | None
    name: str


class TaskExecutor:
    """Deterministic cooperative executor with per-worker queues and stealing."""

    def __init__(self, num_workers: int = 4) -> None:
        check_positive("num_workers", num_workers)
        self.num_workers = int(num_workers)
        self._queues: list[deque[_Task]] = [deque() for _ in range(self.num_workers)]
        self._next_worker = 0
        self._running = False
        self.stats = ExecutorStats()
        self.stats.reset(self.num_workers)

    # -- submission ---------------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any, name: str = "", worker: int | None = None) -> Future:
        """Schedule ``fn(*args)`` and return the future of its result."""
        future = Future(self, name=name or getattr(fn, "__name__", "task"))

        def run() -> Any:
            return fn(*args)

        self._enqueue(_Task(run, future, future.name), worker)
        return future

    def post(self, fn: Callable[[], None], name: str = "", worker: int | None = None) -> None:
        """Schedule fire-and-forget work (continuations); no future."""
        self._enqueue(_Task(fn, None, name or "post"), worker)

    def _enqueue(self, task: _Task, worker: int | None) -> None:
        if worker is None:
            worker = self._next_worker
            self._next_worker = (self._next_worker + 1) % self.num_workers
        else:
            worker %= self.num_workers
        self._queues[worker].append(task)
        self.stats.tasks_spawned += 1
        depth = len(self._queues[worker])
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth

    # -- execution ----------------------------------------------------------

    def _take(self, worker: int) -> _Task | None:
        """Own-queue LIFO pop; otherwise steal FIFO from the nearest victim."""
        own = self._queues[worker]
        if own:
            return own.pop()
        for offset in range(1, self.num_workers):
            victim = (worker + offset) % self.num_workers
            q = self._queues[victim]
            if q:
                self.stats.steals += 1
                return q.popleft()
        self.stats.failed_steals += 1
        return None

    def _step(self, worker: int) -> bool:
        """Run one task on ``worker``. Returns False if no work anywhere."""
        task = self._take(worker)
        if task is None:
            return False
        self.stats.tasks_executed += 1
        self.stats.per_worker_executed[worker] += 1
        if task.future is None:
            task.fn()
            return True
        try:
            result = task.fn()
        except BaseException as exc:  # noqa: BLE001 - stored in the future
            task.future.set_exception(exc)
        else:
            task.future.set_value(result)
        return True

    def pending(self) -> int:
        """Number of queued (not yet executed) tasks."""
        return sum(len(q) for q in self._queues)

    def run_until(self, predicate: Callable[[], bool]) -> None:
        """Drive workers round-robin until ``predicate()`` becomes true.

        Raises :class:`FutureError` if the queues drain while the predicate is
        still false — the awaited value could then never be produced.
        """
        guard = 0
        while not predicate():
            progressed = False
            for worker in range(self.num_workers):
                if predicate():
                    return
                progressed |= self._step(worker)
            self.stats.rounds += 1
            if not progressed:
                raise FutureError(
                    "executor ran out of work while waiting; deadlock or "
                    "missing producer"
                )
            guard += 1
            if guard > 100_000_000:  # pragma: no cover - safety net
                raise FutureError("executor livelock guard tripped")

    def drain(self) -> None:
        """Run until every queue is empty (including newly spawned work)."""
        while self.pending():
            self.run_until(lambda: self.pending() == 0)

    def cancel_pending(self) -> int:
        """Discard every queued task without running it; returns the count.

        Error-path cleanup: when a session body raises, its queued loop tasks
        must not linger and silently execute inside whatever session next
        drives this executor. Orphaned futures are failed with
        :class:`FutureError` so any surviving ``get()`` raises instead of
        deadlocking; continuations fired by those failures are discarded too.
        """
        cancelled = 0
        while self.pending():
            for q in self._queues:
                while q:
                    task = q.popleft()
                    cancelled += 1
                    if task.future is not None and not task.future.is_ready():
                        task.future.set_exception(
                            FutureError(f"task {task.name!r} cancelled by session abort")
                        )
        return cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TaskExecutor workers={self.num_workers} pending={self.pending()}>"
