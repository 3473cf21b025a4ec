"""The loop-program IR: a timestep as data.

A :class:`LoopProgram` is the backend-agnostic description of one solver
timestep: a sequence of *steps* — parallel loops over (subsets of) their
iteration sets, and halo-exchange points — each carrying an explicit
read/write *footprint* over named storage regions. Dependency edges are not
written by hand anywhere: they are derived from footprint conflicts
(read-after-write, write-after-read, write-after-write), exactly the
dependence analysis the paper's modified OP2 API performs at runtime.

One program definition serves every execution stack in the repo:

- the application drivers fire the steps through ``op_par_loop`` (and, for
  the async backend, place their Fig-10 ``new_data.get()`` syncs from the
  derived edges);
- the distributed task-graph emitter turns steps into simulated per-rank
  work parts and wire messages;
- the per-rank :mod:`repro.engine.executors` run the steps for real —
  serially, as fork-join thread batches, or dependency-released.

Footprint tokens are plain strings naming a storage region (``"q:own"``,
``"adt:halo"``, ``"res:bnd"``); two steps conflict when one writes a token
the other touches. Loop-step footprints are not written by hand: they are
derived from the loops' ``op_arg_dat`` access descriptors
(:func:`repro.engine.airfoil.loop_step`). Only exchange steps, which are no
``op_par_loop`` at all, carry hand-written tokens.

``incs`` tokens are commutative increments: they behave like writes against
reads and writes, but two increments of the same token
may commute — the async application driver exploits this to launch
``res_calc`` and ``bres_calc`` without a sync between them (paper Fig 10),
while the real-thread executors keep the strict ordering (two concurrent
read-combine-write scatters into shared rows are still a data race, and
the order of increments fixes the rounding). Exchange steps
additionally carry a per-channel token (``"chan:update"``) so successive
exchanges of one kind serialize even when their data regions are disjoint —
the in-flight-buffer rule of nonblocking MPI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.util.validate import ValidationError

#: Exchange operations and phases understood by transports/executors.
EXCHANGE_OPS = ("update", "accumulate")
EXCHANGE_PHASES = ("start", "wait", "blocking")


@dataclass(frozen=True)
class LoopStep:
    """One parallel loop over ``subset`` of its set (``None`` = whole set)."""

    name: str
    subset: str | None = None
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    #: commutative increments (OP_INC footprints); see module docstring.
    incs: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return "loop"

    @property
    def label(self) -> str:
        return self.name if self.subset is None else f"{self.name}[{self.subset}]"


@dataclass(frozen=True)
class ExchangeStep:
    """One halo-exchange phase over the named dat fields.

    ``op``/``phase`` select the transport primitive (``update_start``,
    ``accumulate_blocking``, ...); ``fields`` are the dat names whose rows
    travel, packed into one message per neighbor.
    """

    op: str
    phase: str
    fields: tuple[str, ...]
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    #: commutative increments (the accumulate wait adds into exported rows).
    incs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in EXCHANGE_OPS:
            raise ValidationError(
                f"unknown exchange op {self.op!r}; use one of {EXCHANGE_OPS}"
            )
        if self.phase not in EXCHANGE_PHASES:
            raise ValidationError(
                f"unknown exchange phase {self.phase!r}; "
                f"use one of {EXCHANGE_PHASES}"
            )

    @property
    def kind(self) -> str:
        return "exchange"

    @property
    def method(self) -> str:
        """Transport method name (``update_blocking``, ``accumulate_wait``...)."""
        return f"{self.op}_{self.phase}"

    @property
    def label(self) -> str:
        return f"halo.{self.op}.{self.phase}"


Step = Union[LoopStep, ExchangeStep]


def steps_conflict(a: Step, b: Step, *, commute_incs: bool = False) -> bool:
    """True when program order between ``a`` and ``b`` must be preserved.

    With ``commute_incs`` two increments of one token do not conflict (the
    reductions commute at loop granularity); increments still conflict with
    plain reads and writes either way. The strict default folds ``incs``
    into the write set — required whenever steps may literally race on
    shared rows (the real-thread executors).
    """
    ar, br = set(a.reads), set(b.reads)
    if commute_incs:
        aw, bw = set(a.writes), set(b.writes)
        ai, bi = set(a.incs), set(b.incs)
        return bool(
            aw & (br | bw | bi)
            or (ar | ai) & bw
            or ai & br
            or ar & bi
        )
    aw = set(a.writes) | set(a.incs)
    bw = set(b.writes) | set(b.incs)
    return bool(aw & br or ar & bw or aw & bw)


@dataclass(frozen=True)
class LoopProgram:
    """An ordered sequence of steps plus subset metadata.

    ``partitions`` documents which named subsets exactly partition which
    iteration space (e.g. ``{"cells": ("boundary_cells", "interior_cells")}``)
    so executors can validate the split they are handed covers every element
    exactly once.
    """

    name: str
    steps: tuple[Step, ...]
    partitions: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def loop_names(self) -> tuple[str, ...]:
        """Distinct loop names, in first-appearance order."""
        seen: dict[str, None] = {}
        for step in self.steps:
            if isinstance(step, LoopStep):
                seen.setdefault(step.name, None)
        return tuple(seen)

    def subset_names(self) -> tuple[str, ...]:
        """Distinct subset names referenced by any loop step."""
        seen: dict[str, None] = {}
        for step in self.steps:
            if isinstance(step, LoopStep) and step.subset is not None:
                seen.setdefault(step.subset, None)
        return tuple(seen)

    def edges(self, *, commute_incs: bool = False) -> tuple[tuple[int, ...], ...]:
        """Direct-predecessor indices per step, derived from footprints.

        Conflict edges are transitively reduced: an edge ``j -> i`` is
        dropped when a path ``j -> k -> i`` already orders the pair, so
        executors schedule against the sparsest equivalent DAG.
        ``commute_incs`` relaxes increment-increment conflicts (see
        :func:`steps_conflict`) — only safe for consumers that serialize
        increments some other way (simulated emission, future-based
        backends), never for the real-thread executors.
        """
        n = len(self.steps)
        preds: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                if steps_conflict(
                    self.steps[j], self.steps[i], commute_incs=commute_incs
                ):
                    preds[i].append(j)
        # Transitive reduction over the (small) step DAG.
        reach: list[set[int]] = [set() for _ in range(n)]
        for i in range(n):
            for j in preds[i]:
                reach[i].add(j)
                reach[i] |= reach[j]
        reduced: list[tuple[int, ...]] = []
        for i in range(n):
            direct = []
            for j in preds[i]:
                covered = any(
                    j in reach[k] for k in preds[i] if k != j
                )
                if not covered:
                    direct.append(j)
            reduced.append(tuple(direct))
        return tuple(reduced)

    def unrolled_edges(
        self, repeats: int, *, commute_incs: bool = False
    ) -> tuple[tuple[int, ...], ...]:
        """Edges of the program repeated ``repeats`` times back to back.

        Cross-repeat conflicts (this timestep's first loops reading what the
        previous timestep's last loops wrote) become ordinary edges into the
        earlier copy, which is how emitters and schedulers chain timesteps
        without a global barrier between them.
        """
        if repeats < 1:
            raise ValidationError(f"repeats must be >= 1, got {repeats}")
        unrolled = LoopProgram(
            name=f"{self.name}x{repeats}",
            steps=self.steps * repeats,
            partitions=self.partitions,
        )
        return unrolled.edges(commute_incs=commute_incs)

    def validate(self) -> None:
        """Structural checks: exchange start/wait pairing per channel."""
        inflight: set[str] = set()
        for step in self.steps:
            if not isinstance(step, ExchangeStep):
                continue
            if step.phase == "start":
                if step.op in inflight:
                    raise ValidationError(
                        f"{step.op} exchange started twice without a wait"
                    )
                inflight.add(step.op)
            elif step.phase == "wait":
                if step.op not in inflight:
                    raise ValidationError(
                        f"{step.op} wait without a matching start"
                    )
                inflight.discard(step.op)
            elif step.op in inflight:
                raise ValidationError(
                    f"blocking {step.op} exchange while one is in flight"
                )
        if inflight:
            raise ValidationError(
                f"program ends with in-flight exchange(s): {sorted(inflight)}"
            )

    def describe(self) -> str:
        loops = sum(1 for s in self.steps if isinstance(s, LoopStep))
        comms = len(self.steps) - loops
        return (
            f"program({self.name}: {loops} loop steps, {comms} exchange "
            f"steps, {len(self.subset_names())} subsets)"
        )
