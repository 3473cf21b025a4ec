"""Property tests: the threaded execution path cannot race on shared rows.

The threads mode dispatches all same-color plan blocks concurrently
(``repro/backends/threaded.py``), so its memory-safety argument rests on two
invariants checked here over hypothesis-generated meshes:

1. no two blocks sharing a color write to a common target row through *any*
   indirect-reduction map argument (multiple maps and multiple target dats
   included);
2. the loop-task core's decomposition (:class:`LoopSpace`) hands each pool
   task a disjoint part of the color class — over the whole set or a sorted
   subset, the chunks' ``execute_loop`` calls (one per chunk) tile the space
   exactly, so concurrent direct writes never overlap either, and same-color
   chunks increment disjoint rows.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.backends.threaded import LoopSpace
from repro.hpx.chunking import (
    AutoPartitioner,
    GuessChunkSize,
    StaticChunkSize,
)
from repro.op2 import OP_INC, OP_MAX, OP_MIN, OpDat, OpMap, OpSet, op_arg_dat
from repro.op2.exceptions import PlanError
from repro.op2.plan import build_plan

REDUCTIONS = [OP_INC, OP_MIN, OP_MAX]


@st.composite
def reduction_world(draw):
    """Random iteration set + 1-2 reduction maps into 1-2 target dats."""
    nfrom = draw(st.integers(1, 150))
    from_set = OpSet("iter", nfrom)
    nmaps = draw(st.integers(1, 2))
    args = []
    maps = []
    for mi in range(nmaps):
        nto = draw(st.integers(1, 80))
        arity = draw(st.integers(1, 3))
        to_set = OpSet(f"to{mi}", nto)
        values = draw(
            st.lists(
                st.lists(st.integers(0, nto - 1), min_size=arity, max_size=arity),
                min_size=nfrom,
                max_size=nfrom,
            )
        )
        m = OpMap(f"m{mi}", from_set, to_set, arity,
                  np.array(values, dtype=np.int64))
        dat = OpDat(f"d{mi}", to_set, 1)
        access = draw(st.sampled_from(REDUCTIONS))
        for idx in range(arity):
            args.append(op_arg_dat(dat, idx, m, access))
        maps.append((m, dat))
    return from_set, maps, args


def _written_rows(arg, start: int, stop: int) -> set[tuple[str, int]]:
    """(dat name, row) pairs this reduction arg writes for elements [start, stop)."""
    col = arg.map_.values[start:stop, arg.idx]
    return {(arg.dat.name, int(r)) for r in col}


@given(reduction_world(), st.integers(1, 24))
def test_same_color_blocks_write_disjoint_rows(world, block_size):
    from_set, maps, args = world
    plan = build_plan(from_set, args, block_size=block_size)
    reduction_args = [a for a in args if a.is_indirect and a.access.is_reduction]
    for cls in plan.classes:
        written: list[set[tuple[str, int]]] = []
        for b in cls:
            blk = plan.blocks[b]
            rows: set[tuple[str, int]] = set()
            for arg in reduction_args:
                rows |= _written_rows(arg, blk.start, blk.stop)
            written.append(rows)
        for i in range(len(written)):
            for j in range(i + 1, len(written)):
                assert not (written[i] & written[j]), (
                    "two same-color blocks write a common row — the threaded "
                    "dispatcher would race on it"
                )


CHUNKERS = {
    "guess": GuessChunkSize(),
    "static": StaticChunkSize(2),
    "auto": AutoPartitioner(),
}


def _run_elements(run) -> list[int]:
    """Element ids one ``execute_loop`` call of a chunk covers."""
    if isinstance(run, slice):
        return list(range(run.start, run.stop))
    return [int(e) for e in run]


@given(
    reduction_world(),
    st.integers(1, 24),
    st.integers(1, 8),
    st.sampled_from(sorted(CHUNKERS)),
)
def test_chunked_spans_tile_each_color_class(world, block_size, workers, kind):
    """Each pool task makes one non-empty call; the calls tile the class exactly.

    The call is a slice when the chunk's blocks are adjacent, otherwise one
    read-only array of the blocks' element ids in block order.
    """
    from_set, maps, args = world
    plan = build_plan(from_set, args, block_size=block_size)
    for color_chunks in LoopSpace(plan).split(CHUNKERS[kind], workers):
        cls = plan.classes[color_chunks[0].color]
        elements: list[int] = []
        for chunk in color_chunks:
            assert len(chunk.runs) == 1
            call = chunk.elements
            blocks_ids = [
                e for b in chunk.blocks for e in range(plan.blocks[b].start, plan.blocks[b].stop)
            ]
            assert _run_elements(call) == blocks_ids
            if isinstance(call, slice):
                assert call.stop > call.start
            else:
                assert call.size and not call.flags.writeable
            elements.extend(_run_elements(call))
        expected = sorted(
            e
            for b in cls
            for e in range(plan.blocks[b].start, plan.blocks[b].stop)
        )
        # Tiling (no element lost) + disjointness (no element duplicated).
        assert sorted(elements) == expected
        assert len(elements) == len(set(elements))


@st.composite
def sorted_subsets(draw, n: int):
    """``None`` (the whole set) or a sorted subset, empty and single included."""
    ids = st.integers(0, n - 1)
    subset = draw(
        st.one_of(
            st.none(),
            st.just([]),
            st.lists(ids, min_size=1, max_size=1),
            st.sets(ids),
        )
    )
    return None if subset is None else np.array(sorted(subset), dtype=np.int64)


@given(st.data(), reduction_world(), st.integers(1, 24), st.integers(1, 8))
def test_decomposition_of_set_or_subset(data, world, block_size, workers):
    """The core's decomposition, over the whole set or a sorted subset:

    every element runs exactly once, same-color chunks increment disjoint
    rows, and the same inputs always give the identical decomposition.
    """
    from_set, maps, args = world
    kind = data.draw(st.sampled_from(sorted(CHUNKERS)))
    subset = data.draw(sorted_subsets(from_set.size))
    plan = build_plan(from_set, args, block_size=block_size)
    reduction_args = [a for a in args if a.is_indirect and a.access.is_reduction]

    colors = LoopSpace(plan, subset).split(CHUNKERS[kind], workers)
    ran: list[int] = []
    for color_chunks in colors:
        written: list[set[tuple[str, int]]] = []
        for chunk in color_chunks:
            assert all(plan.colors[b] == chunk.color for b in chunk.blocks)
            rows: set[tuple[str, int]] = set()
            for run in chunk.runs:
                elements = _run_elements(run)
                assert elements, "a chunk must not make an empty call"
                ran.extend(elements)
                for arg in reduction_args:
                    col = arg.map_.values[elements, arg.idx]
                    rows |= {(arg.dat.name, int(r)) for r in col}
            written.append(rows)
        for i in range(len(written)):
            for j in range(i + 1, len(written)):
                assert not (written[i] & written[j])
    expected = list(range(from_set.size)) if subset is None else subset.tolist()
    assert sorted(ran) == expected
    assert len(ran) == len(set(ran))

    again = LoopSpace(plan, subset).split(CHUNKERS[kind], workers)
    assert [[(c.color, c.index, c.blocks) for c in cs] for cs in again] == [
        [(c.color, c.index, c.blocks) for c in cs] for cs in colors
    ]
    for cs_a, cs_b in zip(again, colors):
        for a, b in zip(cs_a, cs_b):
            assert [_run_elements(r) for r in a.runs] == [_run_elements(r) for r in b.runs]


def test_unsorted_subset_is_rejected():
    """Subset runs are cut by binary search, so the subset must be sorted."""
    plan = build_plan(OpSet("iter", 8), [], block_size=2)
    with pytest.raises(PlanError, match="sorted"):
        LoopSpace(plan, np.array([5, 1]))


@given(reduction_world(), st.integers(1, 24))
def test_classes_execute_every_block_exactly_once(world, block_size):
    """The color-by-color outer loop covers the whole iteration set once."""
    from_set, maps, args = world
    plan = build_plan(from_set, args, block_size=block_size)
    seen = sorted(b for cls in plan.classes for b in cls)
    assert seen == list(range(plan.nblocks))
    total = sum(
        plan.blocks[b].stop - plan.blocks[b].start
        for cls in plan.classes
        for b in cls
    )
    assert total == from_set.size
