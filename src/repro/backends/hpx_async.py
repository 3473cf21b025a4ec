"""The ``async`` + ``for_each(par(task))`` backend (paper §III-A2).

Every ``op_par_loop`` returns a *future*; the application decides where to
synchronize by calling ``runtime.sync(...)`` (the ``new_data.get()`` of paper
Fig 10). Between sync points, loops overlap freely: an idle thread that
finished its part of ``save_soln`` can pick up ``adt_calc`` chunks instead of
spinning at a barrier.

In threads mode every chunk is dependency-released on the pool; conflicting
loops are ordered at loop granularity (a consumer chunk waits for the
producer loop's finalizer), so the application's sync placement is the only
real join. In sim mode the runtime runs each loop in program order and
returns a ready future, so ``rt.sync`` still logs the sync points the
emitter replays.

The emitter replays the recorded loop/sync sequence: loop chunks depend only
on the driver's position (spawn chain + sync joins) and on the previous color
of their own loop, never on a global barrier.
"""

from __future__ import annotations

from typing import Any

from repro.backends.base import execute_loop  # noqa: F401 - patched by perfbench/layers.py
from repro.backends.emission import add_gate, record_block_costs
from repro.backends.scheduling import ScheduledBackend
from repro.op2.runtime import LoopLog, LoopRecord, SyncRecord
from repro.sim.barriers import join_cost
from repro.sim.machine import MachineConfig
from repro.sim.task import TaskGraph


class HpxAsyncBackend(ScheduledBackend):
    """Future-returning loops with application-placed synchronization."""

    name = "hpx_async"
    refine_blocks = False

    def emit(
        self,
        log: LoopLog,
        machine: MachineConfig,
        num_threads: int,
        cost_model: Any,
    ) -> TaskGraph:
        graph = TaskGraph()
        driver: int | None = None  # last task the spawning thread completed
        loop_gate: dict[int, int] = {}  # loop_id -> completion gate task

        for entry in log.entries:
            if isinstance(entry, SyncRecord):
                deps = [loop_gate[lid] for lid in entry.loop_ids if lid in loop_gate]
                if driver is not None:
                    deps.append(driver)
                driver = graph.add(
                    f"sync{entry.loop_ids}",
                    join_cost(machine, num_threads),
                    deps,
                    affinity=0,
                    kind="join",
                )
                continue

            rec = entry
            assert isinstance(rec, LoopRecord)
            costs = record_block_costs(rec, machine, num_threads, cost_model)
            mem = rec.loop.kernel.cost.mem_fraction
            spawn = graph.add(
                f"{rec.loop.name}[{rec.loop_id}].spawn",
                machine.chunk_spawn_overhead * rec.plan.nblocks,
                [driver] if driver is not None else [],
                affinity=0,
                kind="spawn",
                loop=rec.loop.name,
            )
            driver = spawn  # the driver moves on immediately after spawning
            prev_gate: int | None = None
            for color, color_blocks in enumerate(rec.plan.classes):
                entry_deps = [spawn] if prev_gate is None else [prev_gate]
                tids = [
                    graph.add(
                        f"{rec.loop.name}[{rec.loop_id}].blk{b}",
                        costs[b],
                        entry_deps,
                        affinity=None,
                        kind="work",
                        loop=rec.loop.name,
                        mem_fraction=mem,
                    )
                    for b in color_blocks
                ]
                prev_gate = add_gate(
                    graph,
                    f"{rec.loop.name}[{rec.loop_id}].gate.c{color}",
                    tids if tids else [spawn],
                    loop=rec.loop.name,
                )
            loop_gate[rec.loop_id] = (
                prev_gate
                if prev_gate is not None
                else add_gate(graph, f"{rec.loop.name}.empty", [spawn])
            )

        # The run ends when everything completes (application drain).
        return graph
