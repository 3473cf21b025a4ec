"""Block partitioners: split an iteration set into mini-partitions.

OP2 plans execute loops block by block; the block ("mini-partition") is the
scheduling grain for OpenMP chunks, HPX tasks and the machine simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.op2.exceptions import PlanError


@dataclass(frozen=True)
class Block:
    """A contiguous ``[start, stop)`` range of set elements."""

    index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    def elements(self) -> np.ndarray:
        return np.arange(self.start, self.stop, dtype=np.int64)


def contiguous_blocks(set_size: int, block_size: int) -> list[Block]:
    """Tile ``range(set_size)`` with blocks of ``block_size`` (last short)."""
    if block_size < 1:
        raise PlanError(f"block_size must be >= 1, got {block_size}")
    if set_size < 0:
        raise PlanError(f"set_size must be >= 0, got {set_size}")
    blocks = []
    for index, start in enumerate(range(0, set_size, block_size)):
        blocks.append(Block(index, start, min(start + block_size, set_size)))
    return blocks


def validate_blocks(blocks: list[Block], set_size: int) -> None:
    """Raise unless ``blocks`` exactly tile ``[0, set_size)`` in order."""
    pos = 0
    for b in blocks:
        if b.start != pos or b.stop < b.start:
            raise PlanError(f"blocks do not tile [0, {set_size}): {blocks!r}")
        pos = b.stop
    if pos != set_size:
        raise PlanError(f"blocks cover [0, {pos}), expected [0, {set_size})")
