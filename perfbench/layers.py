"""Per-layer attribution for the traced benchmark run, timed from outside.

:class:`LayerTrace` swaps the public functions of each layer for thin
wrappers that time the call and count its work, then puts every original
back. Nothing inside the program changes: the wrappers live here, and an
untraced run measures the unwrapped code.

Accumulators are per thread (each thread adds only to its own dict), so the
wrappers need no lock on the pool's worker threads. Rank processes inherit
the wrappers through ``fork``; each rank resets its copy on entry and writes
its totals to one JSON file per rank when its ``worker_main`` returns.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import repro.backends
import repro.backends.base as backends_base
import repro.backends.hpx_async as hpx_async
import repro.backends.hpx_dataflow as hpx_dataflow
import repro.backends.scheduling as scheduling
import repro.backends.threaded as threaded
import repro.dist.app as dist_app
import repro.engine.executors as executors
import repro.op2
import repro.op2.plan as op2_plan
import repro.procs.driver as procs_driver
from repro.hpx.threadpool import ThreadPoolEngine
from repro.op2.access import Access
from repro.op2.runtime import Op2Runtime
from repro.procs.transport import HaloTransport

#: Every binding of ``execute_loop`` a runtime path calls through.
EXECUTE_LOOP_OWNERS = (
    backends_base,
    repro.backends,
    threaded,
    hpx_async,
    hpx_dataflow,
    executors,
    dist_app,
)
APPLY_PARTIALS_OWNERS = (backends_base, threaded, scheduling, executors)
BUILD_PLAN_OWNERS = (op2_plan, repro.op2, executors)
EXECUTORS = (executors.SerialExecutor, executors.ForkJoinExecutor, executors.DependencyExecutor)


def _on_pool_thread() -> bool:
    return threading.current_thread() is not threading.main_thread()


def _loop_elements(loop, elements) -> int:
    """Element count of one ``execute_loop`` call, as the call computes it."""
    if elements is None:
        return loop.set_.size
    if isinstance(elements, slice):
        return (elements.stop or loop.set_.size) - (elements.start or 0)
    return len(elements)


class LayerTrace:
    """Wraps the layers' public functions; sums time and counts per key.

    Keys ending in ``_s`` are seconds, every other key is a count.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._buckets: list[defaultdict] = []
        self._originals: list[tuple[object, str, object]] = []
        #: where forked ranks write their totals; set before ``run_procs``.
        self.rank_dir: Path | None = None

    # -- accumulation -------------------------------------------------------

    def _bucket(self) -> defaultdict:
        bucket = getattr(self._local, "bucket", None)
        if bucket is None:
            bucket = self._local.bucket = defaultdict(float)
            self._buckets.append(bucket)  # list.append is atomic under the GIL
        return bucket

    def reset(self) -> None:
        """Zero every thread's totals; call only while no traced work runs."""
        for bucket in self._buckets:
            bucket.clear()

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for bucket in list(self._buckets):
            for key, value in list(bucket.items()):
                out[key] += value
        return dict(out)

    # -- patching -----------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._originals)

    def _swap(self, owner: object, name: str, wrapper) -> None:
        self._originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def patch(self) -> None:
        """Install every wrapper. The originals are kept for :meth:`unpatch`."""
        if self.active:
            raise RuntimeError("layer wrappers are already installed")
        execute_loop = self._wrap_execute_loop(backends_base.execute_loop)
        for owner in EXECUTE_LOOP_OWNERS:
            self._swap(owner, "execute_loop", execute_loop)
        self._swap(backends_base, "gather_args", self._wrap_gather(backends_base.gather_args))
        self._swap(
            backends_base, "scatter_args", self._timed("scatter", backends_base.scatter_args)
        )
        fold = self._timed("fold", backends_base.apply_global_partials)
        for owner in APPLY_PARTIALS_OWNERS:
            self._swap(owner, "apply_global_partials", fold)
        build_plan = self._timed("plan_build", op2_plan.build_plan)
        for owner in BUILD_PLAN_OWNERS:
            self._swap(owner, "build_plan", build_plan)

        self._swap(Op2Runtime, "par_loop", self._timed("par_loop", Op2Runtime.par_loop))
        self._swap(Op2Runtime, "finish", self._timed("finish", Op2Runtime.finish))

        self._swap(
            ThreadPoolEngine, "submit_after", self._wrap_submit(ThreadPoolEngine.submit_after)
        )
        self._swap(ThreadPoolEngine, "wait_all", self._wrap_wait_all(ThreadPoolEngine.wait_all))
        self._swap(ThreadPoolEngine, "wait_for", self._wrap_wait_for(ThreadPoolEngine.wait_for))
        self._swap(ThreadPoolEngine, "run_batch", self._wrap_run_batch(ThreadPoolEngine.run_batch))

        for cls in EXECUTORS:
            self._swap(cls, "run", self._timed("program", vars(cls)["run"]))

        for name in ("update_start", "accumulate_start"):
            self._swap(HaloTransport, name, self._wrap_post(vars(HaloTransport)[name], name))
        for name in ("update_wait", "accumulate_wait"):
            self._swap(HaloTransport, name, self._timed("halo_wait", vars(HaloTransport)[name]))

        self._swap(procs_driver, "make_owner", self._timed("partition", procs_driver.make_owner))
        self._swap(
            procs_driver, "build_dist_plan",
            self._timed("dist_plan", procs_driver.build_dist_plan, stamp_end=True),
        )
        self._swap(procs_driver, "worker_main", self._wrap_worker(procs_driver.worker_main))

    def unpatch(self) -> list[str]:
        """Restore every original; returns the attributes that did not come back."""
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self._originals
            if vars(owner)[name] is not original
        ]
        self._originals.clear()
        return wrong

    # -- wrappers -----------------------------------------------------------

    def _timed(self, key: str, fn, stamp_end: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                bucket = self._bucket()
                bucket[f"{key}_s"] += t1 - t0
                bucket[f"{key}_calls"] += 1
                if stamp_end:
                    bucket[f"{key}_end"] = t1

        return wrapper

    def _wrap_execute_loop(self, fn):
        @functools.wraps(fn)
        def wrapper(loop, elements=None, *args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(loop, elements, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                bucket = self._bucket()
                bucket["exec_s"] += dt
                bucket["exec_calls"] += 1
                bucket["elements"] += _loop_elements(loop, elements)
                if _on_pool_thread():
                    bucket["pool_exec_s"] += dt
                    bucket["pool_exec_calls"] += 1

        return wrapper

    def _wrap_gather(self, fn):
        @functools.wraps(fn)
        def wrapper(loop, elements, n):
            t0 = perf_counter()
            try:
                return fn(loop, elements, n)
            finally:
                bucket = self._bucket()
                bucket["gather_s"] += perf_counter() - t0
                # computed, not measured: payload rows the gather reads
                bucket["gather_bytes"] += sum(
                    n * arg.dat.dim * arg.dat.data.itemsize
                    for arg in loop.args
                    if not arg.is_global and arg.access in (Access.READ, Access.RW)
                )

        return wrapper

    def _wrap_submit(self, fn):
        @functools.wraps(fn)
        def wrapper(engine, thunk, deps=(), **kwargs):
            t0 = perf_counter()
            try:
                return fn(engine, thunk, deps, **kwargs)
            finally:
                bucket = self._bucket()
                bucket["submit_s"] += perf_counter() - t0
                if thunk is not None and not kwargs.get("inline", False):
                    bucket["tasks"] += 1

        return wrapper

    def _wrap_wait_all(self, fn):
        @functools.wraps(fn)
        def wrapper(engine, tasks, **kwargs):
            tasks = list(tasks)
            t0 = perf_counter()
            try:
                return fn(engine, tasks, **kwargs)
            finally:
                bucket = self._bucket()
                bucket["join_wait_s"] += perf_counter() - t0
                if tasks:
                    bucket["joins"] += 1
                    if kwargs.get("color_join", False):
                        bucket["color_joins"] += 1

        return wrapper

    def _wrap_wait_for(self, fn):
        @functools.wraps(fn)
        def wrapper(engine, task, **kwargs):
            t0 = perf_counter()
            try:
                return fn(engine, task, **kwargs)
            finally:
                bucket = self._bucket()
                bucket["join_wait_s"] += perf_counter() - t0
                bucket["joins"] += 1

        return wrapper

    def _wrap_run_batch(self, fn):
        @functools.wraps(fn)
        def wrapper(engine, thunks, **kwargs):
            if thunks:
                self._bucket()["batches"] += 1
            return fn(engine, thunks, **kwargs)

        return wrapper

    def _wrap_post(self, fn, name: str):
        peers = "exports" if name == "update_start" else "imports"

        @functools.wraps(fn)
        def wrapper(transport, fields):
            t0 = perf_counter()
            try:
                return fn(transport, fields)
            finally:
                bucket = self._bucket()
                bucket["halo_post_s"] += perf_counter() - t0
                width = sum(f.shape[1] for f in fields)
                for rows in getattr(transport, peers).values():
                    bucket["messages"] += 1
                    bucket["halo_bytes"] += len(rows) * width * 8  # float64 payload

        return wrapper

    def _wrap_worker(self, fn):
        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            # Runs inside the forked rank: start from zero, not the parent's sums.
            self.reset()
            entered = perf_counter()
            try:
                return fn(spec, *args, **kwargs)
            finally:
                if self.rank_dir is not None:
                    out = {"entered": entered, "totals": self.totals()}
                    path = Path(self.rank_dir) / f"rank{spec.rank}.json"
                    path.write_text(json.dumps(out))

        return wrapper

    def read_ranks(self, ranks: int) -> dict[int, dict]:
        """The per-rank files the traced ranks wrote; missing ranks are absent."""
        out = {}
        for rank in range(ranks):
            path = Path(self.rank_dir) / f"rank{rank}.json"
            if path.exists():
                out[rank] = json.loads(path.read_text())
                path.unlink()
        return out
