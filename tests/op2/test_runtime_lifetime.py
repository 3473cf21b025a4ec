"""Session-lifetime regressions: loop-id tracking, error-path cleanup,
and the bounded loop log.

Each test here targets a bug that survived in the runtime for a while:

- loop ids were kept in an ``id(future)``-keyed side table, which confuses
  a *new* future allocated at a collected future's address with the old
  loop — and grows without bound;
- an exception in an ``op2_session`` body skipped ``finish()``, leaving
  queued executor tasks to run inside whatever session drives the executor
  next;
- the loop log kept one record per loop forever, a memory leak on exactly
  the long threaded runs it cannot even be replayed from.
"""

import gc
import threading

import numpy as np
import pytest

from repro.hpx.future import make_ready_future
from repro.hpx.threadpool import TaskCancelled
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_READ,
    OP_WRITE,
    Kernel,
    OpDat,
    OpGlobal,
    OpSet,
    op2_session,
    op_arg_dat,
    op_arg_gbl,
    op_par_loop,
)
from repro.op2.config import DEFAULT_THREADS_LOG_LIMIT, RuntimeConfig
from repro.op2.exceptions import Op2Error
from repro.op2.runtime import LoopLog, LoopRecord, SyncRecord


def _square_loop(n=64):
    """A tiny direct loop: out[i] = src[i]^2. Returns the backend result."""
    cells = OpSet("cells", n)
    src = OpDat("src", cells, 1, np.arange(n, dtype=float))
    out = OpDat("out", cells, 1, np.zeros(n))

    def kv(a, o):
        o[:] = a * a

    return op_par_loop(
        Kernel("square", lambda a, o: None, kv),
        "square",
        cells,
        op_arg_dat(src, -1, OP_ID, OP_READ),
        op_arg_dat(out, -1, OP_ID, OP_WRITE),
    )


def _raising_loop(n=64):
    """A direct loop whose kernel always raises ValueError("kernel boom")."""
    cells = OpSet("cells", n)
    src = OpDat("src", cells, 1, np.zeros(n))
    total = OpGlobal("total", 1, 0.0)

    def kv(a, t):
        raise ValueError("kernel boom")

    return op_par_loop(
        Kernel("bad", lambda a, t: None, kv),
        "bad",
        cells,
        op_arg_dat(src, -1, OP_ID, OP_READ),
        op_arg_gbl(total, OP_INC),
    )


class TestFutureLoopIds:
    def test_loop_id_lives_on_the_future(self):
        with op2_session(backend="hpx_async", num_threads=2) as rt:
            f0 = _square_loop()
            f1 = _square_loop()
            assert (f0.loop_id, f1.loop_id) == (0, 1)
            rt.sync(f1, f0)
            syncs = [e for e in rt.log.entries if isinstance(e, SyncRecord)]
            assert syncs == [SyncRecord(loop_ids=(1, 0))]
        # The buggy id()-keyed side table must be gone entirely.
        assert not hasattr(rt, "_future_loop_ids")

    def test_foreign_future_never_logs_a_sync(self):
        with op2_session(backend="hpx_async", num_threads=2) as rt:
            f = _square_loop()
            rt.sync(f)
            n = len(rt.log.entries)
            rt.sync(make_ready_future(None, rt.hpx.executor))
            assert len(rt.log.entries) == n

    def test_id_reuse_does_not_resurrect_a_stale_loop(self):
        """A new future at a collected future's address is not that loop.

        CPython reuses freed addresses aggressively for same-shaped objects;
        on the old id()-keyed table the fresh future below inherits the dead
        loop's id and logs a phantom SyncRecord.
        """
        with op2_session(backend="hpx_async", num_threads=2) as rt:
            f = _square_loop()
            rt.sync(f)
            stale_id, n = id(f), len(rt.log.entries)
            del f
            gc.collect()
            fresh = None
            for _ in range(256):
                g = make_ready_future(None, rt.hpx.executor)
                if id(g) == stale_id:
                    fresh = g
                    break
                del g
            if fresh is None:
                pytest.skip("allocator never reused the address")
            assert fresh.loop_id is None
            rt.sync(fresh)
            assert len(rt.log.entries) == n


def _held_loop(hold, n=64):
    """A direct loop whose chunks block until ``hold`` is set (5 s at most)."""
    cells = OpSet("cells", n)
    src = OpDat("src", cells, 1, np.arange(n, dtype=float))
    out = OpDat("out", cells, 1, np.zeros(n))

    def kv(a, o):
        hold.wait(5.0)
        o[:] = a

    return op_par_loop(
        Kernel("held", lambda a, o: None, kv),
        "held",
        cells,
        op_arg_dat(src, -1, OP_ID, OP_READ),
        op_arg_dat(out, -1, OP_ID, OP_WRITE),
    )


def _abort_while_held(body_error):
    """Abort a threads-mode hpx_async session while its loop is in flight.

    The loop's chunk blocks on a worker, so its finalizer is still waiting
    when the body raises; a timer releases the chunk 200 ms later, while the
    session's cancel path waits in-flight work out. Returns (rt, pool, future).
    """
    hold = threading.Event()
    with pytest.raises(RuntimeError, match=body_error):
        with op2_session(
            backend="hpx_async", num_threads=1, mode="threads", num_workers=1
        ) as rt:
            pool = rt.thread_pool
            f = _held_loop(hold)
            timer = threading.Timer(0.2, hold.set)
            timer.start()
            raise RuntimeError(body_error)
    timer.join()
    return rt, pool, f


class TestSessionErrorPath:
    def test_body_exception_drains_queued_tasks(self):
        rt, pool, _f = _abort_while_held("body boom")
        assert not pool._pending  # no pool task outlives the aborted session
        assert rt.pool_stats.tasks_cancelled >= 1
        assert rt.hpx.executor.pending() == 0

    def test_cancelled_futures_fail_instead_of_deadlocking(self):
        _rt, _pool, f = _abort_while_held("abort")
        with pytest.raises(TaskCancelled, match="cancelled"):
            f.get()

    def test_raising_kernel_under_hpx_async(self):
        with pytest.raises(ValueError, match="kernel boom"):
            with op2_session(backend="hpx_async", num_threads=2) as rt:
                f = _raising_loop()
                rt.sync(f)
        assert rt.hpx.executor.pending() == 0

    def test_raising_kernel_under_hpx_dataflow(self):
        """The kernel error surfaces from the session; cleanup must still run."""
        with pytest.raises(ValueError, match="kernel boom"):
            with op2_session(backend="hpx_dataflow", num_threads=2) as rt:
                _raising_loop()
        assert rt.hpx.executor.pending() == 0

    def test_session_after_aborted_session_is_clean(self):
        """Queued work from an aborted session must not replay later."""
        with pytest.raises(RuntimeError):
            with op2_session(backend="hpx_async", num_threads=2):
                _square_loop()
                raise RuntimeError("abort")
        with op2_session(backend="hpx_async", num_threads=2) as rt:
            f = _square_loop()
            rt.sync(f)
            assert [e.loop.name for e in rt.log.loops()] == ["square"]


class TestBoundedLoopLog:
    def test_unbounded_by_default(self):
        log = LoopLog()
        for i in range(100):
            log.append(SyncRecord(loop_ids=(i,)))
        assert len(log) == 100 and log.total == 100

    def test_limit_keeps_most_recent(self):
        log = LoopLog(limit=3)
        for i in range(5):
            log.append(SyncRecord(loop_ids=(i,)))
        assert len(log) == 3
        assert [e.loop_ids for e in log.entries] == [(2,), (3,), (4,)]
        assert log.total == 5

    def test_limit_zero_disables_retention(self):
        log = LoopLog(limit=0)
        for i in range(10):
            log.append(SyncRecord(loop_ids=(i,)))
        assert len(log) == 0 and log.total == 10

    def test_config_resolution(self):
        assert RuntimeConfig(mode="sim").resolve_log_limit() is None
        assert (
            RuntimeConfig(mode="threads").resolve_log_limit()
            == DEFAULT_THREADS_LOG_LIMIT
        )
        assert RuntimeConfig(mode="sim", log_limit=7).resolve_log_limit() == 7
        assert RuntimeConfig(mode="threads", log_limit=0).resolve_log_limit() == 0
        with pytest.raises(Op2Error):
            RuntimeConfig(log_limit=-1)

    def test_threaded_log_stays_flat_over_many_loops(self):
        """10k threaded loops must not accumulate 10k log records."""
        nloops = 10_000
        with op2_session(
            backend="openmp",
            num_threads=1,
            block_size=64,
            mode="threads",
            num_workers=1,
        ) as rt:
            cells = OpSet("cells", 8)
            src = OpDat("src", cells, 1, np.ones(8))
            out = OpDat("out", cells, 1, np.zeros(8))

            def kv(a, o):
                o[:] = a

            k = Kernel("copy", lambda a, o: None, kv)
            for _ in range(nloops):
                op_par_loop(
                    k,
                    "copy",
                    cells,
                    op_arg_dat(src, -1, OP_ID, OP_READ),
                    op_arg_dat(out, -1, OP_ID, OP_WRITE),
                )
            assert len(rt.log.entries) == DEFAULT_THREADS_LOG_LIMIT
            assert rt.log.total == nloops
            assert all(isinstance(e, LoopRecord) for e in rt.log.entries)
            # The retained window is the most recent loops, not the oldest.
            assert rt.log.entries[-1].loop_id == nloops - 1

    def test_sim_mode_keeps_the_full_log(self):
        with op2_session(backend="openmp", num_threads=2) as rt:
            for _ in range(5):
                _square_loop()
            assert len(rt.log.entries) == 5
