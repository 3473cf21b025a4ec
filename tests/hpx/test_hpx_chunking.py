"""Tests for repro.hpx.chunking."""

import pytest

from repro.hpx.chunking import (
    AutoPartitioner,
    Chunk,
    GuessChunkSize,
    StaticChunkSize,
    validate_cover,
)
from repro.util.validate import ValidationError


class TestStaticChunkSize:
    def test_exact_tiling(self):
        chunks = StaticChunkSize(4).chunks(12, 3)
        assert [(c.start, c.stop) for c in chunks] == [(0, 4), (4, 8), (8, 12)]

    def test_last_chunk_short(self):
        chunks = StaticChunkSize(5).chunks(12, 2)
        assert chunks[-1].stop - chunks[-1].start == 2

    def test_zero_iterations(self):
        assert StaticChunkSize(4).chunks(0, 2) == []

    def test_invalid_size(self):
        with pytest.raises(Exception):
            StaticChunkSize(0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            StaticChunkSize(4).chunks(-1, 2)

    def test_describe(self):
        assert StaticChunkSize(8).describe() == "static_chunk_size(8)"


class TestGuessChunkSize:
    def test_one_chunk_per_worker(self):
        chunks = GuessChunkSize().chunks(100, 4)
        assert len(chunks) == 4

    def test_more_workers_than_items(self):
        chunks = GuessChunkSize().chunks(3, 8)
        validate_cover(chunks, 3)
        assert all(len(c) >= 1 for c in chunks)

    def test_covers_range(self):
        validate_cover(GuessChunkSize().chunks(17, 5), 17)


class TestAutoPartitioner:
    def test_first_chunk_is_serial_prefix(self):
        chunks = AutoPartitioner().chunks(1000, 4)
        assert chunks[0].serial_prefix
        assert all(not c.serial_prefix for c in chunks[1:])

    def test_prefix_is_one_percent(self):
        ap = AutoPartitioner()
        assert ap.prefix_length(1000) == 10
        assert ap.prefix_length(200) == 2

    def test_prefix_at_least_one(self):
        assert AutoPartitioner().prefix_length(5) == 1

    def test_tiny_loop_fully_serial(self):
        chunks = AutoPartitioner().chunks(1, 4)
        assert len(chunks) == 1
        assert chunks[0].serial_prefix

    def test_covers_range(self):
        validate_cover(AutoPartitioner().chunks(997, 3), 997)

    def test_target_chunks_per_worker(self):
        ap = AutoPartitioner(chunks_per_worker=4)
        chunks = [c for c in ap.chunks(10_000, 8) if not c.serial_prefix]
        # ~4 chunks per worker (up to rounding).
        assert 28 <= len(chunks) <= 36

    def test_cost_probe_never_called_without_measurement(self):
        # Regression: chunks() used to invoke the probe with a fabricated
        # cost of 1.0. The probe only makes sense for a *measured* cost, so
        # the unmeasured path must not call it at all.
        def probe(cost):
            raise AssertionError(f"probe called without measurement: {cost}")

        ap = AutoPartitioner(cost_probe=probe)
        validate_cover(ap.chunks(1000, 4), 1000)

    def test_cost_probe_sees_measured_cost(self):
        seen = []

        def probe(cost):
            seen.append(cost)
            return 50

        ap = AutoPartitioner(cost_probe=probe)
        chunks = ap.split(1000, 4, measure=lambda chunk: 0.02 * len(chunk))
        assert seen == [pytest.approx(0.02)]
        sizes = [len(c) for c in chunks if not c.serial_prefix]
        # All chunks use the probe's size (the final remainder may be short).
        assert all(s <= 50 for s in sizes)
        assert sizes.count(50) >= len(sizes) - 1
        validate_cover(chunks, 1000)

    def test_measured_cost_changes_chunk_size(self):
        # The measurement must actually steer the decomposition: a loop with
        # expensive iterations gets bigger chunks than the cost-free default
        # once a minimum per-chunk work time is requested.
        # Cheap iterations need *more* of them per chunk to amortize the
        # per-chunk overhead the floor models; expensive iterations hit the
        # floor quickly and keep the chunks-per-worker default.
        ap = AutoPartitioner(min_chunk_seconds=1.0)
        unmeasured = [len(c) for c in ap.chunks(1000, 4) if not c.serial_prefix]
        cheap = ap.split(1000, 4, measure=lambda chunk: 0.002 * len(chunk))
        slow = ap.split(1000, 4, measure=lambda chunk: 0.1 * len(chunk))
        cheap_sizes = [len(c) for c in cheap if not c.serial_prefix]
        slow_sizes = [len(c) for c in slow if not c.serial_prefix]
        # 0.002 s/iter and a 1 s floor => at least 500 iterations per chunk.
        assert max(cheap_sizes) >= 500
        assert max(cheap_sizes) > max(unmeasured)
        # 0.1 s/iter hits the floor within the default grain: unchanged.
        assert slow_sizes == unmeasured
        validate_cover(cheap, 1000)
        validate_cover(slow, 1000)

    def test_split_executes_prefix_through_measure(self):
        executed = []

        def measure(chunk):
            executed.append((chunk.start, chunk.stop, chunk.serial_prefix))
            return 0.001 * len(chunk)

        chunks = AutoPartitioner().split(1000, 4, measure=measure)
        assert executed == [(0, 10, True)]
        assert chunks[0].serial_prefix
        validate_cover(chunks, 1000)

    def test_split_without_measure_matches_chunks(self):
        ap = AutoPartitioner()
        assert ap.split(1000, 4) == ap.chunks(1000, 4)

    def test_min_chunk_seconds_validated(self):
        with pytest.raises(ValidationError):
            AutoPartitioner(min_chunk_seconds=-0.5)

    def test_invalid_fraction(self):
        with pytest.raises(ValidationError):
            AutoPartitioner(measure_fraction=0.0)
        with pytest.raises(ValidationError):
            AutoPartitioner(measure_fraction=1.0)

    def test_zero_iterations(self):
        assert AutoPartitioner().chunks(0, 4) == []


class TestValidateCover:
    def test_detects_gap(self):
        with pytest.raises(ValidationError):
            validate_cover([Chunk(0, 3), Chunk(4, 10)], 10)

    def test_detects_shortfall(self):
        with pytest.raises(ValidationError):
            validate_cover([Chunk(0, 5)], 10)

    def test_detects_overrun(self):
        with pytest.raises(ValidationError):
            validate_cover([Chunk(0, 12)], 10)

    def test_empty_ok_for_zero(self):
        validate_cover([], 0)
