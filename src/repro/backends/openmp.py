"""The OpenMP fork-join backend: ``#pragma omp parallel for`` semantics.

Paper Fig 5: OP2's generated OpenMP code runs each color class of each loop
as one parallel region with static block scheduling and an **implicit global
barrier** at its end. No work of loop N+1 can start before the last straggler
of loop N — the fork-join property the paper identifies as the scalability
limit (Amdahl's-law sequential time between loops).
"""

from __future__ import annotations

from typing import Any

from repro.backends.base import Backend
from repro.backends.emission import emit_static_color_class, record_block_costs
from repro.op2.parloop import ParLoop
from repro.op2.plan import Plan
from repro.op2.runtime import LoopLog, Op2Runtime
from repro.sim.barriers import barrier_cost
from repro.sim.machine import MachineConfig
from repro.sim.task import TaskGraph


class OpenMPBackend(Backend):
    """Fork-join execution with static scheduling and per-loop barriers."""

    name = "openmp"
    asynchronous = False

    def run_loop(
        self, rt: Op2Runtime, loop: ParLoop, plan: Plan, loop_id: int
    ) -> None:
        # Functionally, fork-join over blocks in color order is just ordered
        # execution; the numerical result matches the reference exactly.
        self.run_functional(rt, loop)
        return None

    def emit(
        self,
        log: LoopLog,
        machine: MachineConfig,
        num_threads: int,
        cost_model: Any,
    ) -> TaskGraph:
        graph = TaskGraph()
        prev_barrier: int | None = None
        for rec in log.loops():
            costs = record_block_costs(rec, machine, num_threads, cost_model)
            mem = rec.loop.kernel.cost.mem_fraction
            for color, color_blocks in enumerate(rec.plan.classes):
                fork_deps = [prev_barrier] if prev_barrier is not None else []
                fork = graph.add(
                    f"{rec.loop.name}[{rec.loop_id}].fork.c{color}",
                    machine.fork_overhead,
                    fork_deps,
                    affinity=0,
                    kind="spawn",
                    loop=rec.loop.name,
                )
                tails = emit_static_color_class(
                    graph,
                    rec,
                    color_blocks,
                    costs,
                    num_threads,
                    [fork],
                    mem,
                )
                prev_barrier = graph.add(
                    f"{rec.loop.name}[{rec.loop_id}].barrier.c{color}",
                    barrier_cost(machine, num_threads),
                    tails if tails else [fork],
                    affinity=None,
                    kind="barrier",
                    loop=rec.loop.name,
                )
        return graph
