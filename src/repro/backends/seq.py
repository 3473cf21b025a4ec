"""Sequential reference backend."""

from __future__ import annotations

from typing import Any

from repro.backends.base import Backend
from repro.backends.emission import record_block_costs
from repro.op2.parloop import ParLoop
from repro.op2.plan import Plan
from repro.op2.runtime import LoopLog, Op2Runtime
from repro.sim.machine import MachineConfig
from repro.sim.task import TaskGraph


class SeqBackend(Backend):
    """Executes every loop inline, in program order; emits a serial chain."""

    name = "seq"
    asynchronous = False

    def run_loop(
        self, rt: Op2Runtime, loop: ParLoop, plan: Plan, loop_id: int
    ) -> None:
        self.run_functional(rt, loop)
        return None

    def run_loop_threads(
        self, rt: Op2Runtime, loop: ParLoop, plan: Plan, loop_id: int
    ) -> None:
        # The sequential reference stays sequential in every mode — it is the
        # baseline both the conformance matrix and wall-clock speedups use.
        rec = rt.obs
        if rec is None:
            return self.run_loop(rt, loop, plan, loop_id)
        t0 = rec.now()
        self.run_functional(rt, loop)
        end = rec.now()
        rec.span(loop.name, "loop", loop.name, t0, end, busy=True)
        rec.record_loop(loop.name, end - t0, 1, 1)
        return None

    def emit(
        self,
        log: LoopLog,
        machine: MachineConfig,
        num_threads: int,
        cost_model: Any,
    ) -> TaskGraph:
        graph = TaskGraph()
        prev: int | None = None
        for rec in log.loops():
            costs = record_block_costs(rec, machine, num_threads, cost_model)
            mem = rec.loop.kernel.cost.mem_fraction
            for b in range(rec.plan.nblocks):
                prev = graph.add(
                    f"{rec.loop.name}[{rec.loop_id}].blk{b}",
                    costs[b],
                    [prev] if prev is not None else [],
                    affinity=0,
                    kind="work",
                    loop=rec.loop.name,
                    mem_fraction=mem,
                )
        return graph
