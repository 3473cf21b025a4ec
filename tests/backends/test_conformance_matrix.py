"""Differential conformance: every backend x mode x worker count vs seq.

The Airfoil mini-mesh runs N steps under every (backend, execution mode,
worker count) combination. Sim mode runs every loop in program order, so its
state must equal the sequential reference bit for bit. Threads mode must
match within 1e-12: real OS threads may reorder block execution, but coloring
+ deferred global reductions must keep the numbers aligned with the
single-threaded semantics.
"""

import numpy as np
import pytest

from repro.airfoil import AirfoilApp
from repro.op2 import op2_session

BACKENDS = ["openmp", "foreach", "foreach_static", "hpx_async", "hpx_dataflow"]
MODES = ["sim", "threads"]
WORKERS = [1, 4]
NITER = 3
#: Small enough that the 96-cell mini-mesh yields several blocks (and thus
#: several colors on the indirect loops) — otherwise the matrix would never
#: exercise cross-block concurrency.
BLOCK_SIZE = 16
TOL = 1e-12

#: State dats compared against the reference, by app attribute name.
STATE_DATS = ["p_q", "p_qold", "p_res", "p_adt"]


@pytest.fixture(scope="module")
def mini_mesh():
    from repro.airfoil import generate_mesh

    return generate_mesh(ni=16, nj=6)


@pytest.fixture(scope="module")
def seq_reference(mini_mesh):
    """State arrays + result of the plain sequential run (mode="sim")."""
    with op2_session(backend="seq", num_threads=1, block_size=BLOCK_SIZE) as rt:
        app = AirfoilApp(mini_mesh)
        result = app.run(rt, NITER)
    state = {name: getattr(app, name).data.copy() for name in STATE_DATS}
    return state, result


@pytest.mark.parametrize("num_workers", WORKERS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_conformance_matrix(backend, mode, num_workers, mini_mesh, seq_reference):
    ref_state, ref_result = seq_reference
    with op2_session(
        backend=backend,
        num_threads=num_workers,
        block_size=BLOCK_SIZE,
        mode=mode,
        num_workers=num_workers,
    ) as rt:
        app = AirfoilApp(mini_mesh)
        result = app.run(rt, NITER)

    tol = 0.0 if mode == "sim" else TOL
    for name in STATE_DATS:
        diff = float(np.abs(getattr(app, name).data - ref_state[name]).max())
        assert diff <= tol, (
            f"{backend}/{mode}/{num_workers}w: {name} deviates from seq "
            f"by {diff:.3e} (tol {tol:.0e})"
        )
    # The scalar reduction (rms) must conform too — it flows through the
    # deferred global-partial path in threads mode.
    assert result.rms_total == pytest.approx(ref_result.rms_total, abs=tol)


@pytest.mark.parametrize("threads_per_rank", [1, 2])
@pytest.mark.parametrize("schedule", ["blocking", "overlapped"])
def test_procs_hybrid_conformance(
    schedule, threads_per_rank, mini_mesh, seq_reference
):
    """mode="procs" joins the matrix: ranks x threads x schedule vs seq.

    Real OS processes over shared memory, each running the canonical
    timestep program through its schedule's executor (serial, fork-join,
    or dependency-scheduled) — the assembled solution must still agree
    with the sequential reference.
    """
    from repro.procs import ProcsConfig, run_procs

    ref_state, ref_result = seq_reference
    res = run_procs(
        mini_mesh,
        ProcsConfig(
            ranks=2,
            niter=NITER,
            schedule=schedule,
            threads_per_rank=threads_per_rank,
        ),
    )
    diff = float(np.abs(res.q - ref_state["p_q"]).max())
    assert diff <= TOL, (
        f"procs/{schedule}/{threads_per_rank}t: q deviates from seq "
        f"by {diff:.3e} (tol {TOL:.0e})"
    )
    assert res.rms_total == pytest.approx(ref_result.rms_total, abs=TOL)


def test_procs_hybrid_reduction_determinism(mini_mesh):
    """Repeated hybrid overlapped runs are bit-identical.

    Static chunk decomposition + static fold order means the dependency-
    scheduled pool cannot leak completion order into the rms reduction or
    the solution, however the OS schedules the threads.
    """
    from repro.procs import ProcsConfig, run_procs

    runs = [
        run_procs(
            mini_mesh,
            ProcsConfig(
                ranks=2, niter=NITER, schedule="overlapped", threads_per_rank=2
            ),
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].q, runs[1].q)
    assert runs[0].rms_total == runs[1].rms_total


@pytest.mark.parametrize("backend", BACKENDS)
def test_threads_mode_matches_sim_mode_exactly_per_backend(backend, mini_mesh):
    """Same backend, sim vs threads: state agrees within the matrix tol."""
    states = {}
    for mode in MODES:
        with op2_session(
            backend=backend,
            num_threads=4,
            block_size=BLOCK_SIZE,
            mode=mode,
            num_workers=4,
        ) as rt:
            app = AirfoilApp(mini_mesh)
            app.run(rt, NITER)
        states[mode] = {
            name: getattr(app, name).data.copy() for name in STATE_DATS
        }
    for name in STATE_DATS:
        diff = float(np.abs(states["threads"][name] - states["sim"][name]).max())
        assert diff <= TOL
