"""Dataflow dependence tracking between loops over shared dats.

This is the machinery behind the paper's modified OP2 API (§III-B): each dat
carries the future of its latest producer, and a new loop's invocation is
delayed until the futures of everything it depends on are ready. The tracker
implements the full read/write/increment state machine:

- a **reader** depends on the last writer and on any increments since;
- an **incrementer** depends on the last writer and on readers since the last
  write (WAR), but *not* on other incrementers — increments commute, which is
  how ``res_calc`` and ``bres_calc`` overlap in the paper. On real threads
  floating-point increments commute only *mathematically*, not bitwise, so
  the measured scheduler constructs the tracker with
  ``ordered_increments=True`` and serializes incrementers of the same dat in
  program order — determinism over a sliver of overlap;
- a **writer** depends on everything outstanding (last writer, readers,
  incrementers) and then resets the state.

The tracker is generic over what a "token" is; the threads-mode scheduler
(:mod:`repro.backends.scheduling`) and the dataflow *emitter* both use loop
ids. Both therefore share one dependence semantics, which the tests pin
down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Hashable, TypeVar

from repro.op2.access import Access
from repro.op2.args import Arg

T = TypeVar("T", bound=Hashable)


@dataclass
class _DatState(Generic[T]):
    last_writer: T | None = None
    readers_since_write: list[T] = field(default_factory=list)
    incs_since_write: list[T] = field(default_factory=list)


class DatDependencyTracker(Generic[T]):
    """Tracks producer/consumer tokens per dat (keyed by ``id(dat)``)."""

    def __init__(self, ordered_increments: bool = False) -> None:
        #: when True, an incrementer also depends on earlier incrementers of
        #: the same dat. Bitwise determinism on real threads needs this: two
        #: concurrent ``+=`` streams into shared rows produce
        #: schedule-dependent rounding even though the sums commute exactly
        #: in the simulator's functional model.
        self.ordered_increments = bool(ordered_increments)
        self._states: dict[int, _DatState[T]] = {}

    def _state(self, dat: object) -> _DatState[T]:
        return self._states.setdefault(id(dat), _DatState())

    def dependencies(self, args: list[Arg], *, token: T) -> list[T]:
        """Dependencies of a new loop ``token`` with arguments ``args``.

        Also records the loop's own accesses, so call this exactly once per
        loop, in program order. Duplicate dependencies are removed while
        preserving first-seen order.
        """
        deps: list[T] = []
        seen: set[T] = set()

        def need(t: T | None) -> None:
            if t is not None and t != token and t not in seen:
                seen.add(t)
                deps.append(t)

        # First pass: gather dependencies against the *pre-loop* state, so a
        # loop touching the same dat twice (e.g. res1/res2 through two map
        # columns) does not depend on itself.
        per_dat_access: dict[int, list[Access]] = {}
        for arg in args:
            st = self._state(arg.dat)
            acc = arg.access
            per_dat_access.setdefault(id(arg.dat), []).append(acc)
            if acc is Access.READ:
                need(st.last_writer)
                for t in st.incs_since_write:
                    need(t)
            elif acc.is_reduction:
                need(st.last_writer)
                for t in st.readers_since_write:
                    need(t)
                if self.ordered_increments:
                    for t in st.incs_since_write:
                        need(t)
            else:  # WRITE / RW
                need(st.last_writer)
                for t in st.readers_since_write:
                    need(t)
                for t in st.incs_since_write:
                    need(t)

        # Second pass: record this loop's effects. Strongest access wins when
        # the loop names the same dat with several modes.
        for dat_id, accesses in per_dat_access.items():
            st = self._states[dat_id]
            if any(a in (Access.WRITE, Access.RW) for a in accesses):
                st.last_writer = token
                st.readers_since_write = []
                st.incs_since_write = []
            elif any(a.is_reduction for a in accesses):
                st.incs_since_write.append(token)
            else:
                st.readers_since_write.append(token)
        return deps

    def outstanding(self) -> list[T]:
        """Every token still live in some dat state (for final synchronization)."""
        out: list[T] = []
        seen: set[T] = set()
        for st in self._states.values():
            for t in [st.last_writer, *st.readers_since_write, *st.incs_since_write]:
                if t is not None and t not in seen:
                    seen.add(t)
                    out.append(t)
        return out

    def reset(self) -> None:
        self._states.clear()
