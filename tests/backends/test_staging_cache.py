"""Kept execution state stops growing once every loop has run.

The loop-task core keeps each static split on its :class:`LoopSpace`, and
each map keeps the gather rows and scatter rounds of the persistent element
arguments it has served (``OpMap.staging``). Both must be bounded by the
program's shape, not by how long it runs: after a warm-up of N timesteps,
2N more add no entry on any path.
"""

import numpy as np
import pytest

from repro.airfoil import AirfoilApp, generate_mesh
from repro.airfoil.constants import DEFAULT_CONSTANTS
from repro.airfoil.kernels import make_kernels
from repro.dist.app import build_rank_state, make_owner
from repro.dist.plan import build_dist_plan
from repro.engine import ProgramBindings, airfoil_timestep
from repro.engine.executors import DependencyExecutor, ForkJoinExecutor
from repro.hpx.threadpool import ThreadPoolEngine
from repro.op2 import OpGlobal, op2_session
from repro.procs.worker import split_boundary

N = 2


def kept_entries(maps, spaces) -> tuple[int, int]:
    """(map staging entries, kept static splits)."""
    return sum(len(m.staging) for m in maps), sum(len(s.splits) for s in spaces)


def _mesh_maps(mesh):
    return [mesh.pedge, mesh.pecell, mesh.pbedge, mesh.pbecell, mesh.pcell]


def _plan_spaces(rt):
    return [p.derived["space"] for p in rt.plans._plans.values() if "space" in p.derived]


@pytest.mark.parametrize(
    "backend, mode, granularity",
    [
        ("hpx_dataflow", "threads", "set"),
        ("openmp", "threads", "set"),
        ("foreach", "threads", "set"),  # auto partitioner: measured split
        ("openmp", "sim", "block"),
    ],
)
def test_session_paths_add_no_entries_after_warmup(backend, mode, granularity):
    mesh = generate_mesh(ni=24, nj=12)
    app = AirfoilApp(mesh)
    with op2_session(
        backend=backend, num_threads=2, mode=mode, num_workers=2, granularity=granularity
    ) as rt:
        app.run(rt, N)
        rt.finish()
        warm = kept_entries(_mesh_maps(mesh), _plan_spaces(rt))
        app.run(rt, 2 * N)
        rt.finish()
        assert kept_entries(_mesh_maps(mesh), _plan_spaces(rt)) == warm
    staged, splits = warm
    assert staged > 0, "the path keeps staging entries for its element arguments"
    if backend == "foreach":
        assert splits == 0, "a measured split is rebuilt per loop, never kept"
    elif mode == "threads":
        assert splits == len(_plan_spaces(rt)) > 0


class _NoTransport:
    """Exchange methods that move nothing: the cache count needs no halo."""

    def __getattr__(self, name):
        return lambda fields: None


@pytest.mark.parametrize("executor_cls", [ForkJoinExecutor, DependencyExecutor])
@pytest.mark.parametrize("overlap", [False, True])
def test_pooled_executors_add_no_entries_after_warmup(executor_cls, overlap):
    """Rank subsets are read-only views: their staging is kept, and bounded."""
    mesh = generate_mesh(ni=24, nj=12)
    dplan = build_dist_plan(mesh, make_owner(mesh, 2, "rcb"))
    rp = dplan.plans[0]
    freestream = DEFAULT_CONSTANTS.freestream()
    state = build_rank_state(
        rp, make_kernels(DEFAULT_CONSTANTS), OpGlobal("qinf", 4, freestream), freestream
    )
    program = airfoil_timestep(dist=True, overlap=overlap)
    bindings = ProgramBindings(
        loops=state.loops,
        subsets=split_boundary(rp),
        arrays={"q": state.q, "adt": state.adt, "res": state.res},
        transport=_NoTransport(),
    )
    maps = {id(a.map_): a.map_ for loop in state.loops.values() for a in loop.args if a.map_}
    pool = ThreadPoolEngine(2)
    try:
        executor = executor_cls(pool)
        for _ in range(N):
            executor.run(program, bindings)
        warm = kept_entries(maps.values(), executor._spaces.values())
        for _ in range(2 * N):
            executor.run(program, bindings)
        assert kept_entries(maps.values(), executor._spaces.values()) == warm
    finally:
        pool.close()
    assert warm[0] > 0
    assert all(not ids.flags.writeable for ids in bindings.subsets.values())
    assert np.isfinite(state.q).all()
