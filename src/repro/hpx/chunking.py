"""Chunkers: how an iteration space is split into tasks.

Mirrors HPX's chunk-size machinery (paper §III-A1):

- :class:`AutoPartitioner` — HPX's default ``auto_partitioner``: sequentially
  executes ~1% of the loop to estimate per-iteration cost, then picks a chunk
  size targeting a fixed number of chunks per worker. The serial prefix is the
  scalability liability the paper calls out for large loops (Fig 16).
- :class:`StaticChunkSize` — ``hpx::execution::static_chunk_size(n)``; fixed
  grain, no measurement prefix (paper Fig 7).
- :class:`GuessChunkSize` — divide evenly, one chunk per worker per round.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

from repro.util.validate import ValidationError, check_positive

#: Chunks-per-worker target used by the auto partitioner after measuring.
CHUNKS_PER_WORKER = 4

#: Fraction of the iteration space the auto partitioner executes serially.
MEASURE_FRACTION = 0.01


@dataclass(frozen=True)
class Chunk:
    """A contiguous ``[start, stop)`` slice of the iteration space."""

    start: int
    stop: int
    #: True when the chunk was executed inline as a measurement prefix.
    serial_prefix: bool = False

    def __len__(self) -> int:
        return self.stop - self.start


class Chunker(ABC):
    """Strategy object that splits ``n`` iterations for ``num_workers``."""

    @abstractmethod
    def chunks(self, n: int, num_workers: int) -> list[Chunk]:
        """Split ``range(n)`` into chunks. Must exactly cover the range."""

    def split(
        self,
        n: int,
        num_workers: int,
        measure: Callable[[Chunk], float] | None = None,
    ) -> list[Chunk]:
        """Chunk ``range(n)``, running measurement prefixes through ``measure``.

        ``measure(chunk)`` must *execute* the chunk inline and return its
        wall-clock cost in seconds; measuring chunkers (the auto partitioner)
        use the per-iteration cost to size the remaining chunks, everything
        else ignores it. Any returned ``serial_prefix`` chunk has therefore
        already been executed by ``measure`` — callers must not run it again.
        """
        return self.chunks(n, num_workers)

    def describe(self) -> str:
        return type(self).__name__

    def static_key(self) -> tuple | None:
        """Hashable identity of a split fixed by ``(n, num_workers)`` alone.

        Callers keep such splits and reuse them; ``None`` (the default)
        marks a chunker whose split may change from call to call.
        """
        return None


def _split_fixed(start: int, n: int, size: int) -> list[Chunk]:
    """Split ``[start, n)`` into chunks of ``size`` (last may be short)."""
    return [Chunk(i, min(i + size, n)) for i in range(start, n, size)]


class StaticChunkSize(Chunker):
    """Fixed chunk size chosen by the programmer before loop execution."""

    def __init__(self, size: int) -> None:
        check_positive("chunk size", size)
        self.size = int(size)

    def chunks(self, n: int, num_workers: int) -> list[Chunk]:
        if n < 0:
            raise ValidationError(f"iteration count must be >= 0, got {n}")
        return _split_fixed(0, n, self.size)

    def describe(self) -> str:
        return f"static_chunk_size({self.size})"

    def static_key(self) -> tuple:
        return (type(self), self.size)


class GuessChunkSize(Chunker):
    """Even split: ceil(n / workers) per chunk, one chunk per worker."""

    def chunks(self, n: int, num_workers: int) -> list[Chunk]:
        if n < 0:
            raise ValidationError(f"iteration count must be >= 0, got {n}")
        if n == 0:
            return []
        check_positive("num_workers", num_workers)
        size = -(-n // num_workers)  # ceil division
        return _split_fixed(0, n, size)

    def static_key(self) -> tuple:
        return (type(self),)


class AutoPartitioner(Chunker):
    """HPX's auto partitioner: measure ~1% serially, then chunk the rest.

    The first ``max(1, round(n * measure_fraction))`` iterations are marked
    as a *serial prefix* chunk. Via :meth:`split`, the caller executes (and
    times) that chunk inline, and the measured per-iteration cost sizes the
    remaining chunks: ``min_chunk_seconds`` imposes an HPX-style minimum
    amount of work per chunk, and ``cost_probe`` — a hook receiving the
    *measured* cost — may override the size outright (the simulator uses it
    to model cost-aware grain selection without wall-clock nondeterminism).

    The unmeasured :meth:`chunks` path has no per-iteration cost, so neither
    knob applies there: it always produces the deterministic
    chunks-per-worker decomposition. (It used to feed the probe a fabricated
    cost of ``1.0``, which silently divorced the partitioner from its own
    measurement; the probe now only ever sees real data.)
    """

    def __init__(
        self,
        measure_fraction: float = MEASURE_FRACTION,
        chunks_per_worker: int = CHUNKS_PER_WORKER,
        cost_probe: Callable[[float], int] | None = None,
        min_chunk_seconds: float = 0.0,
    ) -> None:
        if not 0.0 < measure_fraction < 1.0:
            raise ValidationError(
                f"measure_fraction must be in (0, 1), got {measure_fraction}"
            )
        check_positive("chunks_per_worker", chunks_per_worker)
        if min_chunk_seconds < 0.0:
            raise ValidationError(
                f"min_chunk_seconds must be >= 0, got {min_chunk_seconds}"
            )
        self.measure_fraction = measure_fraction
        self.chunks_per_worker = int(chunks_per_worker)
        self.cost_probe = cost_probe
        #: chunks are grown until one holds at least this much measured work.
        #: 0.0 (the default) keeps the decomposition independent of the
        #: measurement, which bit-deterministic runs rely on.
        self.min_chunk_seconds = float(min_chunk_seconds)

    def prefix_length(self, n: int) -> int:
        """Number of iterations executed serially for measurement."""
        if n <= 1:
            return n
        return max(1, round(n * self.measure_fraction))

    def _body_chunks(
        self, prefix: int, n: int, num_workers: int, cost: float | None
    ) -> list[Chunk]:
        """Size the post-prefix chunks; ``cost`` is seconds per iteration."""
        rest = n - prefix
        target_chunks = self.chunks_per_worker * num_workers
        size = max(1, -(-rest // target_chunks))
        if cost is not None and cost > 0.0 and self.min_chunk_seconds > 0.0:
            floor = -(-self.min_chunk_seconds // cost)
            size = max(size, int(floor))
        if self.cost_probe is not None and cost is not None:
            override = int(self.cost_probe(cost))
            if override > 0:
                size = override
        return _split_fixed(prefix, n, size)

    def chunks(self, n: int, num_workers: int) -> list[Chunk]:
        if n < 0:
            raise ValidationError(f"iteration count must be >= 0, got {n}")
        if n == 0:
            return []
        check_positive("num_workers", num_workers)
        prefix = self.prefix_length(n)
        out = [Chunk(0, prefix, serial_prefix=True)]
        if n - prefix:
            out.extend(self._body_chunks(prefix, n, num_workers, None))
        return out

    def split(
        self,
        n: int,
        num_workers: int,
        measure: Callable[[Chunk], float] | None = None,
    ) -> list[Chunk]:
        if measure is None:
            return self.chunks(n, num_workers)
        if n < 0:
            raise ValidationError(f"iteration count must be >= 0, got {n}")
        if n == 0:
            return []
        check_positive("num_workers", num_workers)
        prefix_len = self.prefix_length(n)
        prefix = Chunk(0, prefix_len, serial_prefix=True)
        elapsed = float(measure(prefix))
        cost = elapsed / max(1, prefix_len)
        out = [prefix]
        if n - prefix_len:
            out.extend(self._body_chunks(prefix_len, n, num_workers, cost))
        return out

    def describe(self) -> str:
        return f"auto_partitioner({self.measure_fraction:g})"


def validate_cover(chunks: list[Chunk], n: int) -> None:
    """Raise unless ``chunks`` exactly tile ``range(n)`` in order."""
    pos = 0
    for c in chunks:
        if c.start != pos or c.stop < c.start:
            raise ValidationError(f"chunks do not tile range({n}): {chunks!r}")
        pos = c.stop
    if pos != n:
        raise ValidationError(f"chunks cover [0, {pos}), expected [0, {n})")
