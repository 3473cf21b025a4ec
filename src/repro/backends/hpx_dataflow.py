"""The dataflow backend with the modified OP2 API (paper §III-B).

``op_arg_dat`` conceptually returns a *future* of the dat (paper Fig 12);
``op_par_loop`` becomes a dataflow node whose invocation is delayed until all
argument futures are ready (Fig 13). Chained over the application, this
builds the execution tree — a dependency graph — automatically, with no
programmer-placed ``get()`` calls and no step-boundary synchronization:
``data[t]`` depends on ``data[t-1]`` exactly as in paper Fig 14.

Both the threads-mode scheduler and the emitter refine loop-level dependence
to **block level** using the plans and maps (:mod:`repro.backends.blockdeps`):
a consumer block waits only for the producer blocks that touched the same dat
rows. This is the runtime interleaving of direct and indirect loops —
including across timestep boundaries — that the paper credits for the ~21%
scaling improvement. In sim mode the runtime runs each loop in program order;
the dependency tree exists only in the emitted graph.
"""

from __future__ import annotations

from typing import Any

from repro.backends.base import execute_loop  # noqa: F401 - patched by perfbench/layers.py
from repro.backends.blockdeps import BlockDepCache, hazard_dats
from repro.backends.emission import add_gate, record_block_costs
from repro.backends.scheduling import ScheduledBackend
from repro.op2.deps import DatDependencyTracker
from repro.op2.runtime import LoopLog, LoopRecord
from repro.sim.machine import MachineConfig
from repro.sim.task import TaskGraph


class HpxDataflowBackend(ScheduledBackend):
    """Automatic dependence-driven asynchronous execution."""

    name = "hpx_dataflow"
    refine_blocks = True

    def __init__(self) -> None:
        super().__init__()
        self._blockdep_cache = BlockDepCache()

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        log: LoopLog,
        machine: MachineConfig,
        num_threads: int,
        cost_model: Any,
    ) -> TaskGraph:
        graph = TaskGraph()
        tracker: DatDependencyTracker[int] = DatDependencyTracker()
        rec_by_id: dict[int, LoopRecord] = {}
        gate_of: dict[int, int] = {}
        block_tids: dict[int, dict[int, int]] = {}  # loop_id -> {block: tid}

        for rec in log.loops():
            rec_by_id[rec.loop_id] = rec
            dep_ids = tracker.dependencies(list(rec.loop.args), token=rec.loop_id)

            # Per-block producer edges plus gate-level fallbacks (global
            # reductions, empty refinements).
            extra: dict[int, set[int]] = {}
            fallback: set[int] = set()
            for pid in dep_ids:
                producer = rec_by_id[pid]
                shared = hazard_dats(producer, rec)
                if not shared:
                    fallback.add(gate_of[pid])
                    continue
                ptids = block_tids[pid]
                for dat in shared:
                    refined = self._blockdep_cache.get(producer, rec, dat)
                    for b, producer_blocks in enumerate(refined):
                        if len(producer_blocks) == 0:
                            continue
                        bucket = extra.setdefault(b, set())
                        for j in producer_blocks:
                            bucket.add(ptids[int(j)])

            costs = record_block_costs(rec, machine, num_threads, cost_model)
            mem = rec.loop.kernel.cost.mem_fraction
            tids: dict[int, int] = {}
            prev_gate: int | None = None
            all_tids: list[int] = []
            for color, color_blocks in enumerate(rec.plan.classes):
                color_tids = []
                for b in color_blocks:
                    deps = set(extra.get(b, ()))
                    deps.update(fallback)
                    if prev_gate is not None:
                        deps.add(prev_gate)
                    tid = graph.add(
                        f"{rec.loop.name}[{rec.loop_id}].blk{b}",
                        costs[b],
                        sorted(deps),
                        affinity=None,
                        kind="work",
                        loop=rec.loop.name,
                        mem_fraction=mem,
                    )
                    tids[b] = tid
                    color_tids.append(tid)
                    all_tids.append(tid)
                if rec.plan.ncolors > 1:
                    prev_gate = add_gate(
                        graph,
                        f"{rec.loop.name}[{rec.loop_id}].gate.c{color}",
                        color_tids,
                        loop=rec.loop.name,
                    )
            gate_of[rec.loop_id] = add_gate(
                graph,
                f"{rec.loop.name}[{rec.loop_id}].done",
                all_tids if all_tids else [],
                loop=rec.loop.name,
            )
            block_tids[rec.loop_id] = tids
        return graph
