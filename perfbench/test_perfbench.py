"""Self-tests of the benchmark's own instruments.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

Each traced run here is short (one second of segments); the checks are on
counts and on the wrappers, which do not depend on run length.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402
import run as cli  # noqa: E402
from repro.airfoil import ReferenceAirfoil, generate_mesh  # noqa: E402

THREADS = ["airfoil-dataflow-2w"]
SHORT = 1.0


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of every workload with one seed."""
    return {
        name: [harness.run(name, seed=7, seconds=SHORT, traced=True) for _ in range(2)]
        for name in harness.WORKLOADS
    }


def _value(result, name):
    return result["metrics"][name][0]


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_run_is_correct_and_closes_its_counts(traced_runs, name):
    # count closure (pool_stats deltas, ProcsResult.comm, elements per step),
    # gather + scatter <= execute_loop and restored attributes are all
    # checked per segment by the harness; any miss lands in "problems".
    for result in traced_runs[name]:
        assert result["correct"], result["record"]
        assert result["record"]["problems"] == []
        assert result["failed"] == 0


@pytest.mark.parametrize("name", THREADS)
def test_threads_workloads_visit_every_element_once(traced_runs, name):
    assert _value(traced_runs[name][0], "backends.elements") == 103_920


def test_procs_counts_match_the_halo_traffic(traced_runs):
    result = traced_runs["dist-overlapped-2r"][0]
    assert _value(result, "procs.messages") > 0
    assert _value(result, "procs.halo_bytes") > 0
    assert _value(result, "hpx.tasks") == 0


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_counts_repeat_exactly_across_runs(traced_runs, name):
    first, second = traced_runs[name]
    for metric in harness.COUNTS:
        assert _value(first, metric) == _value(second, metric), metric


def test_unpatch_restores_every_original_object():
    bindings = [(owner, "execute_loop") for owner in layers.EXECUTE_LOOP_OWNERS]
    bindings += [(owner, "apply_global_partials") for owner in layers.APPLY_PARTIALS_OWNERS]
    bindings += [(owner, "build_plan") for owner in layers.BUILD_PLAN_OWNERS]
    bindings += [(cls, "run") for cls in layers.EXECUTORS]
    bindings += [
        (layers.ThreadPoolEngine, "submit_after"),
        (layers.Op2Runtime, "par_loop"),
        (layers.HaloTransport, "update_wait"),
        (layers.procs_driver, "worker_main"),
    ]
    before = {(id(o), n): vars(o)[n] for o, n in bindings}
    trace = layers.LayerTrace()
    trace.patch()
    try:
        assert all(vars(o)[n] is not before[(id(o), n)] for o, n in bindings)
    finally:
        assert trace.unpatch() == []
    assert all(vars(o)[n] is before[(id(o), n)] for o, n in bindings)


def test_wrong_results_count_as_failed_segments(monkeypatch):
    monkeypatch.setattr(harness, "TOLERANCE", -1.0)
    result = harness.run("airfoil-dataflow-2w", seed=1, seconds=0.3, traced=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_procs_run_leaves_no_process_behind(capsys):
    # the shared-memory segments launch the resource tracker; a finished
    # command must have stopped it along with every rank process
    argv = ["--workload", "dist-overlapped-2r", "--seconds", "0.3", "--trace", "0"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]
    assert cli.child_pids() == []


def test_relabelling_is_seeded_and_keeps_the_physics():
    mesh = generate_mesh(ni=24, nj=12)
    a, b = harness.relabel_cells(mesh, 3), harness.relabel_cells(mesh, 3)
    c = harness.relabel_cells(mesh, 4)
    assert np.array_equal(a.pecell.values, b.pecell.values)
    assert not np.array_equal(a.pecell.values, c.pecell.values)
    ref, relabelled = ReferenceAirfoil(mesh), ReferenceAirfoil(a)
    ref.run(2)
    relabelled.run(2)
    perm = np.empty(mesh.cells.size, dtype=np.int64)
    perm[a.pecell.values.ravel()] = mesh.pecell.values.ravel()  # new -> old
    assert np.abs(relabelled.q - ref.q[perm]).max() < 1e-12


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert list(cli.WORKLOAD_NAMES) == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_tail_keeps_ten_samples_above_it():
    values = [float(v) for v in range(100)]
    value, pct, n = harness.tail(values)
    assert n == 100 and pct == 90.0
    assert sum(v > value for v in values) == 10
