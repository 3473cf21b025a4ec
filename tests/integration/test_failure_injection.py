"""Failure injection: errors must surface loudly, never corrupt silently."""

import numpy as np
import pytest

from repro.airfoil import AirfoilApp, generate_mesh
from repro.hpx.future import FutureError
from repro.op2 import (
    OP_ID,
    OP_READ,
    OP_WRITE,
    Kernel,
    OpDat,
    OpSet,
    op_arg_dat,
    op_par_loop,
    op2_session,
)


def failing_kernel(fail_at: int):
    """A kernel that raises once a counter reaches ``fail_at`` elements."""
    seen = {"n": 0}

    def k(src, dst):
        seen["n"] += 1
        if seen["n"] >= fail_at:
            raise RuntimeError("injected kernel failure")
        dst[0] = src[0]

    def kv(src, dst):
        seen["n"] += src.shape[0]
        if seen["n"] >= fail_at:
            raise RuntimeError("injected kernel failure")
        dst[:] = src

    return Kernel("failing", k, kv)


@pytest.fixture()
def world():
    cells = OpSet("cells", 32)
    src = OpDat("src", cells, 1, np.arange(32.0))
    dst = OpDat("dst", cells, 1)
    return cells, src, dst


class TestKernelFailurePropagation:
    @pytest.mark.parametrize("backend", ["seq", "openmp", "foreach"])
    def test_sync_backends_raise_immediately(self, world, backend):
        cells, src, dst = world
        with pytest.raises(RuntimeError, match="injected"):
            with op2_session(backend=backend, num_threads=2, block_size=8):
                op_par_loop(
                    failing_kernel(1),
                    "boom",
                    cells,
                    op_arg_dat(src, -1, OP_ID, OP_READ),
                    op_arg_dat(dst, -1, OP_ID, OP_WRITE),
                )

    @pytest.mark.parametrize("backend", ["hpx_async", "hpx_dataflow"])
    def test_async_backends_raise_at_sync(self, world, backend):
        cells, src, dst = world
        with pytest.raises(RuntimeError, match="injected"):
            with op2_session(backend=backend, num_threads=2, block_size=8) as rt:
                fut = op_par_loop(
                    failing_kernel(1),
                    "boom",
                    cells,
                    op_arg_dat(src, -1, OP_ID, OP_READ),
                    op_arg_dat(dst, -1, OP_ID, OP_WRITE),
                )
                rt.sync(fut)

    def test_dataflow_failure_poisons_dependents(self, world):
        cells, src, dst = world
        other = OpDat("other", cells, 1)
        with pytest.raises(RuntimeError, match="injected"):
            with op2_session(backend="hpx_dataflow", num_threads=2, block_size=8) as rt:
                op_par_loop(
                    failing_kernel(1),
                    "boom",
                    cells,
                    op_arg_dat(src, -1, OP_ID, OP_READ),
                    op_arg_dat(dst, -1, OP_ID, OP_WRITE),
                )
                # Depends on dst -> must observe the upstream failure.
                ok = Kernel(
                    "copy", lambda a, b: None,
                    lambda a, b: b.__setitem__(slice(None), a),
                )
                f2 = op_par_loop(
                    ok,
                    "copy",
                    cells,
                    op_arg_dat(dst, -1, OP_ID, OP_READ),
                    op_arg_dat(other, -1, OP_ID, OP_WRITE),
                )
                rt.sync(f2)

    def test_failure_midway_leaves_partial_state_visible(self, world):
        # Chunk-granular threads-mode execution fails partway: earlier
        # chunks committed. This documents (and pins) at-least-once
        # visibility — no rollback.
        cells, src, dst = world
        with pytest.raises(RuntimeError):
            with op2_session(
                backend="foreach", num_threads=2, block_size=8, mode="threads"
            ):
                op_par_loop(
                    failing_kernel(20),
                    "boom",
                    cells,
                    op_arg_dat(src, -1, OP_ID, OP_READ),
                    op_arg_dat(dst, -1, OP_ID, OP_WRITE),
                )
        assert np.any(dst.data != 0.0)
        assert not np.array_equal(dst.data, src.data)


class TestDeadlockDetection:
    def test_get_on_never_produced_future(self, hpx_rt):
        from repro.hpx.future import Future

        orphan = Future(hpx_rt.executor, name="orphan")
        with pytest.raises(FutureError, match="deadlock|ran out"):
            orphan.get()

    def test_airfoil_unaffected_after_failed_run(self):
        # A failed session must not poison the next one (global state reset).
        mesh = generate_mesh(ni=16, nj=6)
        cells = OpSet("cells", 8)
        src = OpDat("s", cells, 1)
        dst = OpDat("d", cells, 1)
        with pytest.raises(RuntimeError):
            with op2_session(backend="hpx_dataflow", num_threads=2) as rt:
                f = op_par_loop(
                    failing_kernel(1),
                    "boom",
                    cells,
                    op_arg_dat(src, -1, OP_ID, OP_READ),
                    op_arg_dat(dst, -1, OP_ID, OP_WRITE),
                )
                rt.sync(f)
        with op2_session(backend="hpx_dataflow", num_threads=2, block_size=16) as rt:
            app = AirfoilApp(mesh)
            result = app.run(rt, 1)
        assert np.isfinite(result.q_norm)
