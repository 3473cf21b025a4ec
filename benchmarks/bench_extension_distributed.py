"""Extension E1: distributed Airfoil — bulk-synchronous vs overlapped.

Beyond the paper's single-node evaluation (its conclusion points at HPX's
distributed capabilities): the SPMD Airfoil partitioned over R nodes, with
halo exchanges costed by an alpha-beta interconnect model. Compares the
MPI+OpenMP-style bulk-synchronous schedule against the HPX-dataflow-style
overlapped schedule where boundary compute feeds the wire early and interior
compute hides it.

Run ``python benchmarks/bench_extension_distributed.py --mode procs`` for
the *measured* variant: the same mesh and schedules executed by real rank
processes over shared memory (:mod:`repro.procs`), with the halo messages
as actual bytes over pipes.
"""

if __package__ in (None, ""):  # executed as a script: fix up sys.path first
    import pathlib
    import sys

    _ROOT = pathlib.Path(__file__).resolve().parent.parent
    for _p in (str(_ROOT), str(_ROOT / "src")):
        if _p not in sys.path:
            sys.path.insert(0, _p)

import numpy as np
import pytest

from benchmarks.wallclock import available_cores, scaling_assertion_active
from repro.airfoil import ReferenceAirfoil, generate_mesh
from repro.dist.app import DistAirfoil
from repro.dist.emission import DistScheduleConfig, emit_distributed
from repro.sim.engine import simulate
from repro.util.tables import Table

RANKS = [2, 4, 8]
#: simulated makespans, keyed by the full run config.
_results: dict[tuple[str, int, str], float] = {}
#: functional SPMD apps, keyed by the full build config (mesh dims, ranks,
#: partitioner) — a rank-count-only key silently reuses a stale app when a
#: second mesh or partitioner enters the module.
_apps: dict[tuple[int, int, int, str], DistAirfoil] = {}


@pytest.fixture(scope="module", autouse=True)
def _reset_caches():
    """Module-scoped cache hygiene: never leak apps/results across reruns."""
    _apps.clear()
    _results.clear()
    yield
    _apps.clear()


@pytest.fixture(scope="module")
def dist_mesh():
    return generate_mesh(ni=120, nj=96)


def _app(mesh, ranks: int, partitioner: str = "rcb") -> DistAirfoil:
    key = (mesh.ni, mesh.nj, ranks, partitioner)
    if key not in _apps:
        _apps[key] = DistAirfoil(mesh, ranks, partitioner=partitioner)
    return _apps[key]


@pytest.mark.parametrize("ranks", RANKS)
@pytest.mark.parametrize("schedule", ["blocking", "overlapped"])
def test_distributed_schedule(benchmark, dist_mesh, schedule, ranks):
    app = _app(dist_mesh, ranks)
    config = DistScheduleConfig(threads_per_node=8, niter=2)
    machine = config.cluster_machine(ranks)

    def run():
        graph = emit_distributed(app.dplan, config, schedule)
        return simulate(graph, machine, machine.num_cores)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    _results[(schedule, ranks, "rcb")] = result.makespan
    benchmark.extra_info["simulated_ms"] = result.makespan / 1000.0


@pytest.fixture(scope="module", autouse=True)
def _print_table():
    yield
    if len(_results) < 2 * len(RANKS):
        _results.clear()
        return
    table = Table(["nodes", "blocking ms", "overlapped ms", "overlap gain"])
    for r in RANKS:
        tb = _results[("blocking", r, "rcb")]
        to = _results[("overlapped", r, "rcb")]
        table.add_row([r, tb / 1000.0, to / 1000.0, f"{tb / to - 1.0:+.1%}"])
    print("\n== extension E1: distributed Airfoil, bulk-sync vs overlapped ==")
    print(table.render())
    gains = [
        _results[("blocking", r, "rcb")] / _results[("overlapped", r, "rcb")]
        for r in RANKS
    ]
    _results.clear()
    assert all(g > 1.0 for g in gains), "overlap must always win"
    assert gains[-1] > gains[0], "overlap gain must grow with node count"


def test_extension_distributed_procs_wallclock(
    dist_mesh, bench_ranks, bench_threads_per_rank, bench_trace_dir
):
    """Measured E1: real rank processes, blocking vs overlapped exchanges.

    Every run's assembled solution is validated against the single-rank
    solver; the throughput assertion (overlapped >= blocking) only fires on
    hosts with enough cores to actually run ranks concurrently.
    """
    from repro.procs import ProcsConfig, leaked_segments, run_procs

    niter = 2
    repeats = 2
    tpr = bench_threads_per_rank
    ref = ReferenceAirfoil(dist_mesh)
    ref.run(niter)
    work = dist_mesh.cells.size * niter
    wall_ms: dict[tuple[int, str], float] = {}
    comm_kib: dict[tuple[int, str], float] = {}
    for ranks in bench_ranks:
        for schedule in ("blocking", "overlapped"):
            best = float("inf")
            for rep in range(repeats):
                trace_dir = (
                    bench_trace_dir / f"procs-{ranks}r{tpr}t-{schedule}"
                    if bench_trace_dir is not None and rep == repeats - 1
                    else None
                )
                res = run_procs(
                    dist_mesh,
                    ProcsConfig(
                        ranks=ranks,
                        niter=niter,
                        schedule=schedule,
                        threads_per_rank=tpr,
                        trace_dir=trace_dir,
                    ),
                )
                err = float(np.abs(res.q - ref.q).max())
                assert err <= 1e-12, (
                    f"{schedule} R={ranks}: diverged from reference ({err:.3e})"
                )
                assert leaked_segments(res.shm_names) == []
                best = min(best, res.wall_seconds)
            wall_ms[(ranks, schedule)] = best * 1e3
            comm_kib[(ranks, schedule)] = (
                res.comm.get("bytes_updated", 0)
                + res.comm.get("bytes_accumulated", 0)
            ) / 1024

    table = Table(
        [
            "ranks",
            "blocking ms",
            "overlapped ms",
            "blocking cells*it/s",
            "overlapped cells*it/s",
            "halo KiB",
        ]
    )
    for ranks in bench_ranks:
        tb, to = wall_ms[(ranks, "blocking")], wall_ms[(ranks, "overlapped")]
        table.add_row(
            [
                ranks,
                tb,
                to,
                work / (tb / 1e3),
                work / (to / 1e3),
                comm_kib[(ranks, "blocking")],
            ]
        )
    print(
        f"\n== E1 measured: procs-mode Airfoil, blocking vs overlapped "
        f"({tpr} thread(s)/rank, {available_cores()} usable core(s)) =="
    )
    print(table.render())
    for ranks in bench_ranks:
        if scaling_assertion_active(ranks * tpr):
            tb, to = wall_ms[(ranks, "blocking")], wall_ms[(ranks, "overlapped")]
            assert to <= tb, (
                f"overlapped schedule slower than blocking at R={ranks}: "
                f"{to:.1f} ms vs {tb:.1f} ms"
            )


def test_extension_hybrid_budget_procs_wallclock(dist_mesh, bench_trace_dir):
    """Measured E1 hybrid: fixed core budget, varying the ranks/threads split.

    The classic MPI+OpenMP trade-off on one host: a 4-core budget spent as
    4 ranks x 1 thread (pure process parallelism), 2 x 2 (hybrid), or
    1 x 4 (pure shared memory). Every layout must validate against the
    single-rank solver; the table shows where the blocking-vs-overlapped
    gap lives — more ranks means more halo traffic for overlap to hide,
    fewer ranks shifts the weight onto the in-process executors.
    """
    from repro.procs import ProcsConfig, leaked_segments, run_procs

    niter = 2
    repeats = 2
    layouts = [(4, 1), (2, 2), (1, 4)]
    ref = ReferenceAirfoil(dist_mesh)
    ref.run(niter)
    wall_ms: dict[tuple[int, int, str], float] = {}
    for ranks, tpr in layouts:
        for schedule in ("blocking", "overlapped"):
            best = float("inf")
            for rep in range(repeats):
                trace_dir = (
                    bench_trace_dir / f"hybrid-{ranks}x{tpr}-{schedule}"
                    if bench_trace_dir is not None and rep == repeats - 1
                    else None
                )
                res = run_procs(
                    dist_mesh,
                    ProcsConfig(
                        ranks=ranks,
                        niter=niter,
                        schedule=schedule,
                        threads_per_rank=tpr,
                        trace_dir=trace_dir,
                    ),
                )
                err = float(np.abs(res.q - ref.q).max())
                assert err <= 1e-12, (
                    f"{schedule} {ranks}x{tpr}: diverged from reference "
                    f"({err:.3e})"
                )
                assert leaked_segments(res.shm_names) == []
                best = min(best, res.wall_seconds)
            wall_ms[(ranks, tpr, schedule)] = best * 1e3

    table = Table(
        ["layout", "blocking ms", "overlapped ms", "overlap gap"]
    )
    for ranks, tpr in layouts:
        tb = wall_ms[(ranks, tpr, "blocking")]
        to = wall_ms[(ranks, tpr, "overlapped")]
        table.add_row(
            [f"{ranks} ranks x {tpr} thr", tb, to, f"{tb / to - 1.0:+.1%}"]
        )
    print(
        f"\n== E1 measured hybrid: fixed 4-core budget, ranks x threads "
        f"({available_cores()} usable core(s)) =="
    )
    print(table.render())


if __name__ == "__main__":
    import sys

    raise SystemExit(pytest.main([__file__, "-q", "-s", *sys.argv[1:]]))
