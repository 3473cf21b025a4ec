"""The Airfoil application driver (paper Fig 4 / Fig 10 / Fig 14).

One solver iteration is::

    save_soln                       # qold <- q
    repeat 2x (RK2-like):           #
        adt_calc                    # local timestep per cell
        res_calc                    # interior fluxes -> res
        bres_calc                   # boundary fluxes -> res
        update                      # q <- qold - res/adt, res <- 0, rms +=

The iteration itself lives in :func:`repro.engine.airfoil.airfoil_timestep`
— the one canonical loop-program definition — and this driver *walks* it.
Three walk variants mirror the paper:

- **sync** (seq / openmp / foreach backends): plain program order — every
  loop completes before the next starts (Fig 4);
- **async**: loops return futures; the ``rt.sync(...)`` points are derived
  from the program's footprint conflicts (with increments commuting), which
  lands them exactly where Fig 10's ``new_data.get()`` calls go — including
  the extra save_soln sync the ``qold`` dependence of update requires, the
  manual-placement hazard the paper itself points out;
- **dataflow**: no syncs at all; the modified OP2 API orders loops by their
  actual data dependencies, across timestep boundaries (Fig 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.airfoil.constants import DEFAULT_CONSTANTS, FlowConstants
from repro.airfoil.kernels import make_kernels
from repro.airfoil.meshgen import AirfoilMesh
from repro.engine import INNER_ITERS, airfoil_timestep
from repro.engine.airfoil import CELL_FIELDS, airfoil_loops
from repro.engine.program import LoopStep, steps_conflict
from repro.op2 import OpDat, OpGlobal, Op2Runtime, op_par_loop

__all__ = ["AirfoilApp", "AirfoilResult", "INNER_ITERS"]


@dataclass
class AirfoilResult:
    """Final state of a run, for validation and reporting."""

    iterations: int
    rms_total: float
    q_norm: float
    rms_history: list[float] = field(default_factory=list)

    def final_rms(self, ncells: int) -> float:
        """Paper-style RMS residual (normalized by cell count)."""
        return float(np.sqrt(self.rms_total / ncells))


class AirfoilApp:
    """The Airfoil solver wired to the OP2 API."""

    def __init__(
        self, mesh: AirfoilMesh, constants: FlowConstants = DEFAULT_CONSTANTS
    ) -> None:
        self.mesh = mesh
        self.constants = constants
        self.kernels = make_kernels(constants)

        ncells = mesh.cells.size
        freestream = constants.freestream()
        self.p_x = mesh.x
        self.p_bound = mesh.bound
        self.p_q = OpDat("q", mesh.cells, CELL_FIELDS["q"], np.tile(freestream, (ncells, 1)))
        self.p_qold = OpDat("qold", mesh.cells, CELL_FIELDS["qold"])
        self.p_res = OpDat("res", mesh.cells, CELL_FIELDS["res"])
        self.p_adt = OpDat("adt", mesh.cells, CELL_FIELDS["adt"])
        self.g_rms = OpGlobal("rms", 1)
        self.g_qinf = OpGlobal("qinf", CELL_FIELDS["q"], freestream)

        #: the five loops, built from the one Airfoil loop table.
        self.loops = airfoil_loops(
            self.kernels,
            {"cells": mesh.cells, "edges": mesh.edges, "bedges": mesh.bedges},
            mesh,
            {
                "x": self.p_x,
                "bound": self.p_bound,
                "q": self.p_q,
                "qold": self.p_qold,
                "res": self.p_res,
                "adt": self.p_adt,
            },
            {"qinf": self.g_qinf, "rms": self.g_rms},
        )
        #: the canonical timestep; all three walk variants consume it.
        self.program = airfoil_timestep()
        #: loops fired but not yet synced, for the async walk: the sync
        #: points are derived, not hand-placed.
        self._pending: list[tuple[LoopStep, object]] = []

    # -- program walks --------------------------------------------------------

    def fire(self, name: str):
        """Launch one loop through ``op_par_loop``; returns the backend's result."""
        loop = self.loops[name]
        return op_par_loop(loop.kernel, loop.name, loop.set_, *loop.args)

    def _step_sync(self, rt: Op2Runtime) -> None:
        for step in self.program:
            self.fire(step.name)

    def _step_async(self, rt: Op2Runtime) -> None:
        # Before each launch, sync exactly the pending futures whose steps
        # conflict with it (increments commute: res_calc and bres_calc fly
        # together). On this program that derivation reproduces Fig 10's
        # hand placement: adt before res/bres, {save, res, bres} before
        # update, update before the next adt — carried across timestep
        # boundaries by the pending list.
        for step in self.program:
            due = [
                (s, f)
                for s, f in self._pending
                if steps_conflict(s, step, commute_incs=True)
            ]
            if due:
                rt.sync(*(f for _, f in due))
                self._pending = [p for p in self._pending if p not in due]
            self._pending.append((step, self.fire(step.name)))

    def _step_dataflow(self, rt: Op2Runtime) -> None:
        # No synchronization anywhere: the modified API tracks dependencies
        # automatically, including across timestep boundaries.
        for step in self.program:
            self.fire(step.name)

    def run(self, rt: Op2Runtime, niter: int) -> AirfoilResult:
        """Run ``niter`` timesteps on the given runtime's backend."""
        backend = rt.backend
        if backend.name == "hpx_dataflow":
            step = self._step_dataflow
        elif backend.asynchronous:
            step = self._step_async
        else:
            step = self._step_sync

        history: list[float] = []
        track_history = not backend.asynchronous
        for _ in range(niter):
            step(rt)
            if track_history:
                # rms accumulates monotonically; per-step increments give the
                # classic convergence trace without forcing async syncs.
                history.append(float(self.g_rms.value()))
        rt.finish()
        self._pending.clear()
        return AirfoilResult(
            iterations=niter,
            rms_total=float(self.g_rms.value()),
            q_norm=self.p_q.norm(),
            rms_history=history,
        )
