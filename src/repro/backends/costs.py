"""Cost model: from mesh blocks to simulator task costs.

A block's cost is ``n_elements * unit_cost * contention * jitter`` where

- ``unit_cost``/``mem_fraction`` come from the kernel's
  :class:`~repro.op2.kernel.KernelCost` (calibrated per Airfoil kernel);
- ``contention`` is the bandwidth dilation of
  :func:`repro.sim.bandwidth.contention_factor` for the run's thread count;
- ``jitter`` is a deterministic pseudo-random per-block factor modeling
  cache/TLB variation between mini-partitions — the load-imbalance source
  that static fork-join scheduling cannot absorb but work stealing can.
"""

from __future__ import annotations

import numpy as np

from repro.op2.kernel import Kernel
from repro.op2.plan import Plan
from repro.sim.bandwidth import contention_factor
from repro.sim.machine import MachineConfig
from repro.util.rng import DEFAULT_SEED, derive_seed
from repro.util.validate import check_in_range


class LoopCostModel:
    """Maps (loop, block) to simulated cost at a given thread count."""

    def __init__(self, jitter: float = 0.25, seed: int = DEFAULT_SEED) -> None:
        check_in_range("jitter", jitter, 0.0, 0.9)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self._jitter_cache: dict[tuple[str, int], np.ndarray] = {}

    def _jitter_factors(self, loop_name: str, nblocks: int) -> np.ndarray:
        """Per-block multiplicative factors in [1-j, 1+j], stable per loop."""
        key = (loop_name, nblocks)
        factors = self._jitter_cache.get(key)
        if factors is None:
            rng = np.random.default_rng(derive_seed(self.seed, "jitter", loop_name))
            factors = 1.0 + self.jitter * (2.0 * rng.random(nblocks) - 1.0)
            self._jitter_cache[key] = factors
        return factors

    def block_cost(
        self,
        loop_name: str,
        kernel: Kernel,
        plan: Plan,
        block: int,
        machine: MachineConfig,
        num_threads: int,
    ) -> float:
        """Simulated microseconds for one block of one loop."""
        nelems = len(plan.blocks[block])
        base = nelems * kernel.cost.unit_cost
        dilated = base * contention_factor(
            machine, num_threads, kernel.cost.mem_fraction
        )
        return dilated * float(self._jitter_factors(loop_name, plan.nblocks)[block])


def block_costs(
    cost_model: LoopCostModel,
    loop_name: str,
    kernel: Kernel,
    plan: Plan,
    machine: MachineConfig,
    num_threads: int,
) -> list[float]:
    """All block costs of a loop, in block order."""
    return [
        cost_model.block_cost(loop_name, kernel, plan, b, machine, num_threads)
        for b in range(plan.nblocks)
    ]
