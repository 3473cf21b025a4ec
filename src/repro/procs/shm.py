"""Shared-memory backing for per-rank dats (``mode="procs"``).

Every rank's four cell fields (``q``/``res``/``adt`` over owned+halo rows,
``qold`` over owned rows) live in named ``multiprocessing.shared_memory``
segments sized from the :class:`~repro.dist.plan.DistPlan` layout. The
parent creates and owns the segments (it unlinks them — exactly once — on
every exit path, including rank failures); each rank process attaches by
name and wraps the buffers in numpy views that
:func:`repro.dist.app.build_rank_state` turns into ordinary OpDats. After
the run the parent assembles the global solution straight out of the
segments — results never travel through a queue.

POSIX shared memory is kernel-persistent: a leaked segment outlives every
process that mapped it, so teardown discipline is the whole point of this
module. :func:`leaked_segments` lets tests prove cleanliness.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.dist.app import rank_field_shapes
from repro.dist.plan import DistPlan
from repro.util.validate import ValidationError

_DTYPE = np.float64

@dataclass(frozen=True)
class SegmentSpec:
    """One named segment and the array shape mapped onto it."""

    name: str
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(_DTYPE).itemsize


@dataclass(frozen=True)
class RankLayout:
    """The segment specs of one rank, keyed by field name. Picklable —
    this is what travels to the rank process instead of the arrays."""

    rank: int
    segments: dict[str, SegmentSpec]


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach ``shm`` from the resource tracker after a probe attach.

    Attaching re-registers the name with the (shared) tracker; a probe that
    runs *after* the owner already unlinked would leave a stale entry and
    trigger leaked-object warnings at interpreter exit. Only probes use
    this — rank processes share the parent's tracker, where the set-based
    cache already dedupes their attach-time registration, and untracking
    there would strip the parent's own entry.
    """
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class ShmRegistry:
    """Parent-side owner of every rank's shared segments.

    Creating the registry allocates (and zeroes) all segments up front; a
    half-failed construction unlinks whatever it managed to create before
    re-raising, so no error path can strand kernel memory. ``close()`` is
    idempotent and tolerates segments someone else already removed.
    """

    def __init__(self, dplan: DistPlan, token: str | None = None) -> None:
        self.token = token if token is not None else secrets.token_hex(4)
        self.layouts: list[RankLayout] = []
        self._segments: list[shared_memory.SharedMemory] = []
        self._arrays: list[dict[str, np.ndarray]] = []
        self._closed = False
        try:
            for rp in dplan.plans:
                specs: dict[str, SegmentSpec] = {}
                arrays: dict[str, np.ndarray] = {}
                for field, shape in rank_field_shapes(rp).items():
                    spec = SegmentSpec(name=f"repro_{self.token}_r{rp.rank}_{field}", shape=shape)
                    seg = shared_memory.SharedMemory(
                        create=True, name=spec.name, size=max(spec.nbytes, 1)
                    )
                    self._segments.append(seg)
                    arr = np.ndarray(spec.shape, dtype=_DTYPE, buffer=seg.buf)
                    arr[:] = 0.0
                    specs[field] = spec
                    arrays[field] = arr
                self.layouts.append(RankLayout(rank=rp.rank, segments=specs))
                self._arrays.append(arrays)
        except BaseException:
            self.close()
            raise

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Every segment name this registry allocated (stable after close)."""
        return tuple(
            spec.name for layout in self.layouts for spec in layout.segments.values()
        )

    def arrays(self, rank: int) -> dict[str, np.ndarray]:
        """Parent-side numpy views over rank ``rank``'s segments."""
        if self._closed:
            raise ValidationError("shared-memory registry is closed")
        return self._arrays[rank]

    def close(self) -> None:
        """Release and unlink every segment. Idempotent; error-tolerant."""
        if self._closed:
            return
        self._closed = True
        self._arrays = []  # drop buffer views before closing the mappings
        for seg in self._segments:
            try:
                seg.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        self._segments = []

    def __enter__(self) -> "ShmRegistry":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AttachedRank:
    """Rank-process view of its own segments (attach-only, never unlinks)."""

    def __init__(self, layout: RankLayout) -> None:
        self.rank = layout.rank
        self._segments: list[shared_memory.SharedMemory] = []
        self.arrays: dict[str, np.ndarray] = {}
        try:
            for field, spec in layout.segments.items():
                seg = shared_memory.SharedMemory(name=spec.name)
                self._segments.append(seg)
                self.arrays[field] = np.ndarray(
                    spec.shape, dtype=_DTYPE, buffer=seg.buf
                )
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Unmap (but never unlink) the attached segments. Idempotent."""
        self.arrays = {}
        for seg in self._segments:
            try:
                seg.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        self._segments = []

    def __enter__(self) -> "AttachedRank":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def leaked_segments(names: tuple[str, ...] | list[str]) -> list[str]:
    """The subset of ``names`` still present in the OS (should be empty).

    Test helper for the cleanliness guarantee: after a run — successful or
    aborted — every name the driver reports must be gone.
    """
    leaked = []
    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        _untrack(seg)
        seg.close()
        leaked.append(name)
    return leaked
