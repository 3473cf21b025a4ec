"""A genuinely SPMD distributed Airfoil solver.

Every rank holds only its submesh (owned cells + halo, its edges, renumbered
maps) and runs the unmodified Airfoil kernels through the standard OP2
gather/scatter machinery; halo exchanges move data between ranks at exactly
the points OP2's MPI backend would:

- ``update(q)``, ``update(adt)`` after ``adt_calc`` (res_calc reads both
  sides of every partition-crossing edge);
- ``accumulate(res)`` after ``res_calc``/``bres_calc`` (increments that
  landed in halo rows travel to their owners).

Owned and halo rows share one storage array per rank; two OpDat views (one
on the owned set for direct loops, one on the full local cell set for
indirect loops) give the kernels the right iteration spaces without copying.
The assembled global state matches the single-rank solver to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.airfoil.constants import DEFAULT_CONSTANTS, FlowConstants
from repro.airfoil.kernels import make_kernels
from repro.airfoil.meshgen import AirfoilMesh
from repro.backends.base import execute_loop
from repro.dist.exchange import HaloExchange
from repro.engine import airfoil_timestep
from repro.engine.airfoil import CELL_FIELDS, airfoil_loops
from repro.engine.program import ExchangeStep
from repro.dist.partition import band_partition, cell_centroids, rcb_partition
from repro.dist.plan import DistPlan, RankPlan, build_dist_plan
from repro.op2 import OpDat, OpGlobal
from repro.op2.parloop import ParLoop
from repro.util.validate import ValidationError


@dataclass
class RankState:
    """One rank's arrays, dat views and loop objects."""

    plan: RankPlan
    q: np.ndarray
    qold: np.ndarray
    res: np.ndarray
    adt: np.ndarray
    rms: OpGlobal
    loops: dict[str, ParLoop]


def make_owner(mesh: AirfoilMesh, ranks: int, partitioner: str) -> np.ndarray:
    """Cell->rank assignment for the named partitioner ('rcb' or 'band')."""
    if partitioner == "rcb":
        return rcb_partition(cell_centroids(mesh), ranks)
    if partitioner == "band":
        return band_partition(mesh.cells.size, ranks)
    raise ValidationError(
        f"unknown partitioner {partitioner!r}; use 'rcb' or 'band'"
    )


def rank_field_shapes(rp: RankPlan) -> dict[str, tuple[int, int]]:
    """Storage shape of each cell field on one rank.

    ``qold`` is read and written only by direct cell loops, so it covers the
    owned rows; the other fields span owned + halo rows.
    """
    n_local = rp.n_owned + rp.n_halo
    return {
        name: (rp.n_owned if name == "qold" else n_local, dim)
        for name, dim in CELL_FIELDS.items()
    }


def build_rank_state(
    rp: RankPlan,
    kernels: dict,
    g_qinf: OpGlobal,
    freestream: np.ndarray,
    arrays: dict[str, np.ndarray] | None = None,
) -> RankState:
    """Build one rank's dat views and its five loops from the Airfoil table.

    ``arrays`` optionally supplies preallocated storage for the four cell
    fields (``q``/``res``/``adt`` over owned+halo rows, ``qold`` over owned
    rows) — the procs mode passes views over shared-memory segments here so
    the parent can assemble results without copying through a queue. The
    arrays are (re)initialized in place; omitted, fresh numpy storage is
    allocated.
    """
    shapes = rank_field_shapes(rp)
    if arrays is None:
        arrays = {name: np.empty(shape) for name, shape in shapes.items()}
    if any(arrays[name].shape != shape for name, shape in shapes.items()):
        raise ValidationError(
            f"rank {rp.rank} array shapes do not match its plan layout"
        )
    q, qold, res, adt = arrays["q"], arrays["qold"], arrays["res"], arrays["adt"]
    q[:] = freestream
    qold[:] = 0.0
    res[:] = 0.0
    adt[:] = 0.0
    rms = OpGlobal(f"rms.r{rp.rank}", 1)

    # Owned-set views (direct cell loops) share storage with the
    # full-local-set views (loops reaching cells through pecell/pbecell):
    # q[:n_owned] is a contiguous view, so writes through either dat are the
    # same memory.
    owned, cells = rp.owned_set, rp.cells_set

    def views(name: str) -> tuple[OpDat, OpDat]:
        arr, dim = arrays[name], CELL_FIELDS[name]
        return OpDat(name, owned, dim, arr[: rp.n_owned]), OpDat(name, cells, dim, arr)

    loops = airfoil_loops(
        kernels,
        {"cells": owned, "edges": rp.edges_set, "bedges": rp.bedges_set},
        rp,
        {
            "x": OpDat("x", rp.nodes_set, 2, rp.x_local),
            "bound": OpDat("bound", rp.bedges_set, 1, rp.bound_local, dtype=np.int64),
            "q": views("q"),
            "qold": OpDat("qold", owned, CELL_FIELDS["qold"], qold),
            "res": views("res"),
            "adt": views("adt"),
        },
        {"qinf": g_qinf, "rms": rms},
    )
    return RankState(plan=rp, q=q, qold=qold, res=res, adt=adt, rms=rms, loops=loops)


class DistAirfoil:
    """The Airfoil solver over ``ranks`` partitions."""

    #: the canonical timestep in its bulk-synchronous shape; stepping walks
    #: it rather than hand-coding the loop/exchange order. Class-level: the
    #: program is frozen data, identical for every instance.
    program = airfoil_timestep(dist=True)

    def __init__(
        self,
        mesh: AirfoilMesh,
        ranks: int,
        partitioner: str = "rcb",
        constants: FlowConstants = DEFAULT_CONSTANTS,
    ) -> None:
        self.mesh = mesh
        self.constants = constants
        owner = make_owner(mesh, ranks, partitioner)
        self.dplan: DistPlan = build_dist_plan(mesh, owner)
        self.exchange = HaloExchange(self.dplan)
        self.kernels = make_kernels(constants)
        freestream = constants.freestream()
        self.g_qinf = OpGlobal("qinf", CELL_FIELDS["q"], freestream)
        self.states: list[RankState] = [
            build_rank_state(rp, self.kernels, self.g_qinf, freestream)
            for rp in self.dplan.plans
        ]
        self.iterations = 0

    # -- SPMD stepping ----------------------------------------------------------

    def _all(self, loop_name: str) -> None:
        for state in self.states:
            execute_loop(state.loops[loop_name])

    def step(self) -> None:
        """One timestep: walk the blocking program across all ranks.

        Loop steps run on every rank; a blocking exchange step moves one
        field at a time through :class:`HaloExchange` (``update`` ships
        halo copies owner->holder, ``accumulate`` returns halo increments
        holder->owner).
        """
        for pstep in self.program:
            if isinstance(pstep, ExchangeStep):
                op = getattr(self.exchange, pstep.op)
                for name in pstep.fields:
                    op([getattr(s, name) for s in self.states])
            else:
                self._all(pstep.name)
        self.iterations += 1

    def run(self, niter: int) -> dict[str, float]:
        for _ in range(niter):
            self.step()
        return {
            "iterations": float(self.iterations),
            "rms_total": self.rms_total(),
            "q_norm": float(np.sqrt(np.sum(self.gather_q() ** 2))),
        }

    # -- assembly / inspection ---------------------------------------------------

    def rms_total(self) -> float:
        return float(sum(s.rms.value() for s in self.states))

    def gather_q(self) -> np.ndarray:
        """Assemble the global solution from the owned rows of every rank."""
        return self.gather("q")

    def gather(self, field: str) -> np.ndarray:
        """Assemble any cell field ('q', 'res', 'adt', 'qold')."""
        out = np.empty((self.mesh.cells.size, CELL_FIELDS[field]))
        for state in self.states:
            arr = getattr(state, field)
            out[state.plan.owned_cells] = arr[: state.plan.n_owned]
        return out
