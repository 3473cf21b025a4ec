"""Task-graph emission for distributed Airfoil schedules.

Both schedules are *walks of the canonical timestep program*
(:func:`repro.engine.airfoil.airfoil_timestep`) — the emitter holds no
loop order or split of its own, only the translation of program steps into
simulated per-rank work parts and wire messages:

- **blocking** (the MPI+OpenMP baseline) walks the bulk-synchronous
  program: each loop step is a node-local fork-join (split across the
  node's threads + node barrier) followed by a global gate; a blocking
  exchange step becomes every rank's pack -> wire -> unpack plus a global
  gate — MPI_Waitall + barrier semantics — before the next step starts
  anywhere.
- **overlapped** (the HPX dataflow style) walks the overlapped program
  unrolled over all timesteps: each rank's parts depend only on the parts
  of the program's derived predecessor steps (increments commuting, as the
  future-based runtime orders them), exchange starts become messages whose
  unpacks gate only the steps that read halo data. Boundary ``adt_calc``
  feeds the wire early, interior compute proceeds under it, and only the
  exterior edges wait — the communication/computation overlap the paper
  credits HPX's futures for (§V: "seamless overlap of communication with
  computation").

The simulated machine is a cluster: ``ranks`` nodes x ``threads_per_node``
cores, plus one NIC pseudo-thread per node that serializes its outgoing
messages. Work costs come from the same kernel cost model as the single-node
figures; message sizes come from the *actual* import/export lists of the
distribution plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.airfoil.kernels import make_kernels
from repro.airfoil.constants import DEFAULT_CONSTANTS
from repro.dist.comm import CommModel
from repro.dist.plan import DistPlan, split_boundary
from repro.engine import airfoil_timestep
from repro.engine.airfoil import AIRFOIL_LOOPS
from repro.engine.program import ExchangeStep, LoopStep
from repro.sim.barriers import barrier_cost
from repro.sim.machine import MachineConfig
from repro.sim.task import TaskGraph

#: float64 components per exchanged row, per dat field.
FIELD_DIMS = {"q": 4, "adt": 1, "res": 4}


@dataclass(frozen=True)
class DistScheduleConfig:
    """Knobs of the distributed emission."""

    threads_per_node: int = 8
    niter: int = 2
    comm: CommModel = CommModel()
    #: barrier/overhead constants reuse the single-node machine model.
    node_machine: MachineConfig = MachineConfig(num_cores=64, smt_ways=1)

    def cluster_machine(self, ranks: int) -> MachineConfig:
        """Flat simulated pool: ranks*threads compute cores + one NIC each."""
        return MachineConfig(
            num_cores=ranks * self.threads_per_node + ranks,
            smt_ways=1,
            task_overhead=self.node_machine.task_overhead,
            steal_overhead=self.node_machine.steal_overhead,
            fork_overhead=self.node_machine.fork_overhead,
            chunk_spawn_overhead=self.node_machine.chunk_spawn_overhead,
            barrier_base=self.node_machine.barrier_base,
            barrier_per_thread=self.node_machine.barrier_per_thread,
            join_base=self.node_machine.join_base,
            join_per_thread=self.node_machine.join_per_thread,
            bandwidth_saturation=self.node_machine.bandwidth_saturation,
        )


@dataclass
class _RankWork:
    """Per-rank work decomposition (element counts -> costs)."""

    #: elements per iteration set (``cells`` = owned cells) and per subset
    #: of the rank's boundary/interior split.
    counts: dict[str, int]
    #: bytes sent to each neighbor per q/adt update and per res accumulate.
    out_bytes: dict[int, int]


def _decompose(dplan: DistPlan) -> list[_RankWork]:
    """Boundary/interior split sizes and message sizes per rank.

    The split is the one the rank workers execute
    (:func:`repro.dist.plan.split_boundary`).
    """
    works: list[_RankWork] = []
    for rp in dplan.plans:
        counts = {"cells": rp.n_owned, "edges": len(rp.edges), "bedges": len(rp.bedges)}
        counts.update((name, len(ids)) for name, ids in split_boundary(rp).items())
        out_bytes = {
            s: len(idx) * 8 for s, idx in rp.exports.items()
        }  # per dim-1 float64 row; scaled by dim at use sites
        works.append(_RankWork(counts=counts, out_bytes=out_bytes))
    return works


class _Emitter:
    """Shared machinery for both schedules."""

    def __init__(self, dplan: DistPlan, config: DistScheduleConfig) -> None:
        self.dplan = dplan
        self.config = config
        self.graph = TaskGraph()
        self.works = _decompose(dplan)
        self.kernels = make_kernels(DEFAULT_CONSTANTS)
        self.P = config.threads_per_node
        self.R = dplan.ranks

    def thread(self, node: int, t: int) -> int:
        return node * self.P + t

    def nic(self, node: int) -> int:
        return self.R * self.P + node

    def unit(self, kernel: str) -> float:
        return self.kernels[kernel].cost.unit_cost

    def part(
        self, name: str, node: int, total_cost: float, deps: list[int], loop: str
    ) -> list[int]:
        """Emit one loop part as equal per-thread chunks on ``node``."""
        per = total_cost / self.P
        return [
            self.graph.add(
                f"{name}.n{node}.t{t}",
                per,
                deps,
                affinity=self.thread(node, t),
                kind="work",
                loop=loop,
            )
            for t in range(self.P)
        ]

    def node_barrier(self, name: str, node: int, deps: list[int]) -> int:
        return self.graph.add(
            name,
            barrier_cost(self.config.node_machine, self.P),
            deps,
            affinity=self.thread(node, 0),
            kind="barrier",
        )

    def message(
        self, name: str, src: int, dst: int, nbytes: int, deps: list[int]
    ) -> int:
        """pack (src cpu) -> wire (src NIC) -> unpack (dst cpu)."""
        comm = self.config.comm
        pack = self.graph.add(
            f"{name}.pack",
            comm.pack_cost(nbytes),
            deps,
            affinity=self.thread(src, 0),
            kind="spawn",
            loop="exchange",
        )
        wire = self.graph.add(
            f"{name}.wire",
            comm.wire_cost(nbytes),
            [pack],
            affinity=self.nic(src),
            kind="join",
            loop="exchange",
        )
        return self.graph.add(
            f"{name}.unpack",
            comm.pack_cost(nbytes),
            [wire],
            affinity=self.thread(dst, 0),
            kind="spawn",
            loop="exchange",
        )

    def global_gate(self, name: str, deps: list[int]) -> int:
        """MPI_Waitall + barrier across all ranks (tree over the network)."""
        cost = self.config.comm.latency * max(1.0, math.ceil(math.log2(max(self.R, 2))))
        return self.graph.add(name, cost, deps, affinity=None, kind="barrier")


def emit_distributed(
    dplan: DistPlan,
    config: DistScheduleConfig,
    schedule: str = "blocking",
) -> TaskGraph:
    """Emit the distributed Airfoil run under the given schedule."""
    if schedule == "blocking":
        return _emit_blocking(_Emitter(dplan, config))
    if schedule == "overlapped":
        return _emit_overlapped(_Emitter(dplan, config))
    raise ValueError(f"unknown schedule {schedule!r}; use 'blocking' or 'overlapped'")


_SHORT = {
    "save_soln": "save",
    "adt_calc": "adt",
    "res_calc": "res",
    "bres_calc": "bres",
    "update": "update",
}

_SUBSET_TAG = {
    None: "",
    "boundary_cells": "_b",
    "interior_cells": "_i",
    "interior_edges": "_i",
    "exterior_edges": "_x",
}


def _count(step: LoopStep, w: _RankWork) -> int:
    """Elements one rank iterates for a program loop step."""
    return w.counts[step.subset or AIRFOIL_LOOPS[step.name][0]]


def _msg_dim(step: ExchangeStep) -> int:
    """float64 components per exchanged row (fields pack into one message)."""
    return sum(FIELD_DIMS[f] for f in step.fields)


def _part_name(step: LoopStep, tag: str) -> str:
    return f"{_SHORT[step.name]}{_SUBSET_TAG[step.subset]}[{tag}]"


def _emit_blocking(e: _Emitter) -> TaskGraph:
    """Walk the bulk-synchronous program with a rolling global gate."""
    program = airfoil_timestep(dist=True)
    gate: int | None = None
    for it in range(e.config.niter):
        for i, step in enumerate(program.steps):
            tag = f"{it}.{i}"
            deps = [gate] if gate is not None else []
            if isinstance(step, ExchangeStep):
                dim = _msg_dim(step)
                unpacks = []
                for r, w in enumerate(e.works):
                    for s, rows in w.out_bytes.items():
                        # update ships owner -> holder; accumulate returns
                        # halo increments holder -> owner.
                        src, dst = (r, s) if step.op == "update" else (s, r)
                        unpacks.append(
                            e.message(
                                f"{step.op[:3]}[{tag}].{src}->{dst}",
                                src,
                                dst,
                                rows * dim,
                                deps,
                            )
                        )
                gate = e.global_gate(f"{step.op[:3]}.gate[{tag}]", unpacks or deps)
                continue
            name = _SHORT[step.name]
            tails = []
            for r, w in enumerate(e.works):
                cost = _count(step, w) * e.unit(step.name)
                tasks = e.part(f"{name}[{tag}]", r, cost, deps, step.name)
                tails.append(e.node_barrier(f"{name}.bar[{tag}].n{r}", r, tasks))
            gate = e.global_gate(f"{name}.gate[{tag}]", tails)
    return e.graph


def _emit_overlapped(e: _Emitter) -> TaskGraph:
    """Walk the overlapped program unrolled over every timestep.

    Each rank's parts depend on the parts of the step's derived predecessors
    *on that rank only* (plus message unpacks at the waits) — no global
    gates anywhere, and cross-timestep edges chain the iterations without a
    barrier between them.
    """
    program = airfoil_timestep(dist=True, overlap=True)
    niter = e.config.niter
    steps = program.steps * niter
    edges = program.unrolled_edges(niter, commute_incs=True)
    #: per step index, per rank: the task ids that mean "this step is done".
    finals: list[list[list[int]]] = []
    #: in-flight unpack ids per exchange op, per receiving rank.
    pending: dict[str, list[list[int]]] = {
        "update": [[] for _ in range(e.R)],
        "accumulate": [[] for _ in range(e.R)],
    }

    def deps_for(i: int, r: int) -> list[int]:
        return [t for p in edges[i] for t in finals[p][r]]

    for i, step in enumerate(steps):
        it, j = divmod(i, len(program.steps))
        tag = f"{it}.{j}"
        if isinstance(step, ExchangeStep):
            per_rank: list[list[int]] = [[] for _ in range(e.R)]
            if step.phase == "start":
                dim = _msg_dim(step)
                for r, w in enumerate(e.works):
                    for s, rows in w.out_bytes.items():
                        src, dst = (r, s) if step.op == "update" else (s, r)
                        pending[step.op][dst].append(
                            e.message(
                                f"{step.op[:3]}[{tag}].{src}->{dst}",
                                src,
                                dst,
                                rows * dim,
                                deps_for(i, src),
                            )
                        )
            else:
                # The wait completes when this rank's unpacks have landed;
                # no task of its own.
                for r in range(e.R):
                    per_rank[r] = pending[step.op][r] + deps_for(i, r)
                pending[step.op] = [[] for _ in range(e.R)]
            finals.append(per_rank)
            continue
        finals.append(
            [
                e.part(
                    _part_name(step, tag),
                    r,
                    _count(step, w) * e.unit(step.name),
                    deps_for(i, r),
                    step.name,
                )
                for r, w in enumerate(e.works)
            ]
        )
    return e.graph
