"""Chrome-trace export of measured runs, and the no-perturbation contract.

The measured (threads-mode) exporter shares its event builders with the
simulated one, so both flavors must satisfy the same Trace Event Format
schema; and enabling observability must not change a single bit of the
computed solution.
"""

import json

import numpy as np
import pytest

from repro.airfoil import AirfoilApp, generate_mesh
from repro.op2 import op2_session
from repro.op2.exceptions import Op2Error

NITER = 2
STATE_DATS = ["p_q", "p_qold", "p_res", "p_adt"]
AIRFOIL_KERNELS = {"save_soln", "adt_calc", "res_calc", "bres_calc", "update"}


def _run_airfoil(mesh, **session_kwargs):
    with op2_session(
        backend="hpx_dataflow",
        num_threads=2,
        block_size=32,
        mode="threads",
        num_workers=2,
        **session_kwargs,
    ) as rt:
        app = AirfoilApp(mesh)
        result = app.run(rt, NITER)
    state = {name: getattr(app, name).data.copy() for name in STATE_DATS}
    return rt, state, result


def _check_trace_schema(events):
    """Minimal Trace Event Format ("JSON array" flavor) conformance."""
    assert isinstance(events, list) and events
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in meta)
    assert any(e["name"] == "thread_name" for e in meta)
    durations = [e for e in events if e["ph"] == "X"]
    assert durations
    for e in durations:
        assert isinstance(e["name"], str) and e["name"]
        assert isinstance(e["cat"], str)
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
        assert isinstance(e["dur"], (int, float)) and e["dur"] >= 0
    return durations


class TestThreadsTrace:
    def test_traced_airfoil_exports_schema_conformant_json(self, tiny_mesh, tmp_path):
        rt, _, _ = _run_airfoil(tiny_mesh, trace=True)
        path = tmp_path / "threads.json"
        n = rt.export_trace(path)
        events = json.loads(path.read_text())
        assert len(events) == n
        durations = _check_trace_schema(events)
        kinds = {e["args"]["kind"] for e in durations}
        # hpx_dataflow is dependency-scheduled in threads mode: chunk
        # "release" spans replace per-color barriers (no "color" spans).
        assert {"loop", "task", "release"} <= kinds
        assert "color" not in kinds
        loops = {e["args"]["loop"] for e in durations}
        assert "res_calc" in loops and "update" in loops
        # Task lanes belong to worker rows, never the orchestrator's tid 0.
        assert all(
            e["tid"] > 0 for e in durations if e["args"]["kind"] == "task"
        )

    def test_timing_summary_covers_all_kernels(self, tiny_mesh):
        rt, _, _ = _run_airfoil(tiny_mesh, timing=True)
        summary = rt.timing_summary()
        assert {"save_soln", "adt_calc", "res_calc", "bres_calc", "update"} <= set(
            summary.kernels
        )
        res = summary.kernels["res_calc"]
        assert res.count == 2 * NITER  # two res_calc sweeps per iteration
        assert res.colors >= 2  # indirect loop: multiple color classes
        assert res.tasks > 0 and res.task_time > 0.0
        # Dependency scheduling never dispatches fork-join batches.
        assert summary.total_tasks > 0 and summary.batches == 0

    @pytest.mark.parametrize(
        "backend",
        ["seq", "openmp", "foreach", "foreach_static", "hpx_async", "hpx_dataflow"],
    )
    def test_total_counts_only_the_loops_own_execution(self, backend):
        """``total`` runs from a loop's first chunk start, ``latency`` from submit.

        Dependency scheduling submits loops long before their chunks can
        run; that wait is latency, not execution. A kernel's invocations on
        ``hpx_dataflow`` are chained by data and never overlap, so their
        summed ``total`` fits inside the observed span. Every backend,
        ``seq`` included, reports a row for each Airfoil kernel.
        """
        mesh = generate_mesh(ni=48, nj=24)
        with op2_session(
            backend=backend, num_threads=2, mode="threads", num_workers=2, timing=True
        ) as rt:
            AirfoilApp(mesh).run(rt, 4)
        summary = rt.timing_summary()
        assert AIRFOIL_KERNELS <= set(summary.kernels), sorted(summary.kernels)
        for kt in summary.kernels.values():
            assert 0.0 < kt.total <= kt.latency, kt.name
            if backend == "hpx_dataflow":
                assert kt.total <= summary.wall, kt.name
        assert "latency ms" in summary.render()

    def test_timing_only_mode_has_no_event_stream(self, tiny_mesh, tmp_path):
        rt, _, _ = _run_airfoil(tiny_mesh, timing=True)
        assert rt.obs is not None and rt.obs.events == []
        with pytest.raises(Op2Error, match="trace"):
            rt.export_trace(tmp_path / "never.json")

    def test_disabled_observability_raises_on_access(self, tiny_mesh, tmp_path):
        rt, _, _ = _run_airfoil(tiny_mesh)
        assert rt.obs is None
        with pytest.raises(Op2Error):
            rt.timing_summary()
        with pytest.raises(Op2Error):
            rt.export_trace(tmp_path / "never.json")


class TestSimTrace:
    def test_sim_trace_satisfies_same_schema(self, tmp_path):
        from repro.backends.costs import LoopCostModel
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_backend, simulate_backend
        from repro.sim.chrometrace import export_chrome_trace

        cfg = ExperimentConfig(ni=16, nj=6, niter=1, block_size=16)
        run = run_backend("openmp", cfg, validate=False)
        res = simulate_backend(run, cfg, 2, LoopCostModel(), trace=True)
        path = tmp_path / "sim.json"
        export_chrome_trace(res.trace, path)
        durations = _check_trace_schema(json.loads(path.read_text()))
        assert {e["args"]["kind"] for e in durations} >= {"work"}


class TestNoPerturbation:
    @pytest.mark.parametrize("backend", ["openmp", "hpx_dataflow"])
    def test_tracing_does_not_change_results(self, backend, tiny_mesh):
        """Observability is read-only: traced and bare runs are bit-identical."""

        def run(**kwargs):
            with op2_session(
                backend=backend,
                num_threads=2,
                block_size=32,
                mode="threads",
                num_workers=2,
                **kwargs,
            ) as rt:
                app = AirfoilApp(tiny_mesh)
                result = app.run(rt, NITER)
            return (
                {name: getattr(app, name).data.copy() for name in STATE_DATS},
                result,
            )

        bare_state, bare = run()
        traced_state, traced = run(trace=True, timing=True)
        for name in STATE_DATS:
            assert np.array_equal(bare_state[name], traced_state[name]), (
                f"{backend}: {name} perturbed by tracing"
            )
        assert bare.rms_total == traced.rms_total
        assert bare.q_norm == traced.q_norm
