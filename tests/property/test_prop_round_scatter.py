"""Property tests: the shared access layer is bitwise equal to ``ufunc.at``.

``repro.backends.base`` gathers with ``take`` and applies indirect
INC/MIN/MAX scatters as duplicate-free rounds. These tests pin both against
the numpy operations they replace — fancy indexing and ``np.add.at`` /
``np.minimum.at`` / ``np.maximum.at`` applied argument by argument — bit for
bit, over repeated targets (every element hitting one row included), empty
calls, arity-1 maps, dims 1-4, slice and index-array element arguments, and
``-0.0`` / ``NaN`` / ``inf`` values for MIN/MAX.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.backends.base import (
    duplicate_free_rounds,
    execute_loop,
    gather_args,
)
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_MAX,
    OP_MIN,
    OP_READ,
    OP_RW,
    Kernel,
    OpDat,
    OpMap,
    OpSet,
    op_arg_dat,
)
from repro.op2.parloop import ParLoop

UFUNC_AT = {OP_INC: np.add.at, OP_MIN: np.minimum.at, OP_MAX: np.maximum.at}

#: finite values, signed zeros, infinities and NaN (MIN/MAX see them all).
SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])
FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@st.composite
def scatter_world(draw):
    """A map with many repeats, a dat, an element argument and values."""
    nfrom = draw(st.integers(0, 40))
    nto = draw(st.integers(1, 6))
    arity = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        values = np.zeros((nfrom, arity), dtype=np.int64)  # one target for all
    else:
        values = np.array(
            draw(st.lists(st.lists(st.integers(0, nto - 1), min_size=arity, max_size=arity),
                          min_size=nfrom, max_size=nfrom)),
            dtype=np.int64,
        ).reshape(nfrom, arity)
    kind = draw(st.sampled_from(["none", "slice", "array", "read_only"]))
    if kind == "none":
        elements = None
    elif kind == "slice":
        lo = draw(st.integers(0, nfrom))
        elements = slice(lo, draw(st.integers(lo, nfrom)))
    else:
        ids = draw(st.permutations(range(nfrom)))[: draw(st.integers(0, nfrom))]
        elements = np.array(ids, dtype=np.int64)
        if kind == "read_only":
            elements.setflags(write=False)
    return nfrom, nto, arity, dim, values, elements


def _ids(elements, nfrom: int) -> np.ndarray:
    if elements is None:
        return np.arange(nfrom)
    if isinstance(elements, slice):
        return np.arange(nfrom)[elements]
    return elements


@given(scatter_world(), st.sampled_from([OP_INC, OP_MIN, OP_MAX]), st.data())
def test_round_scatter_matches_ufunc_at(world, access, data):
    """Every column of the map reduces into one dat, in argument order."""
    nfrom, nto, arity, dim, values, elements = world
    ids = _ids(elements, nfrom)
    n = len(ids)
    vals = FINITE if access is OP_INC else st.one_of(FINITE, SPECIAL)
    init = np.array(data.draw(st.lists(vals, min_size=nto * dim, max_size=nto * dim)))
    contrib = [
        np.array(data.draw(st.lists(vals, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
        for _ in range(arity)
    ]
    src, dst = OpSet("src", nfrom), OpSet("dst", nto)
    m = OpMap("m", src, dst, arity, values)
    dat = OpDat("d", dst, dim, init.reshape(nto, dim).copy())

    def kernel(*bufs):
        for buf, c in zip(bufs, contrib):
            buf[...] = c

    loop = ParLoop(
        Kernel("k", lambda *a: None, kernel), "k", src,
        tuple(op_arg_dat(dat, i, m, access) for i in range(arity)),
    )
    expected = init.reshape(nto, dim).copy()
    for i in range(arity):
        UFUNC_AT[access](expected, values[ids, i], contrib[i])
    for _repeat in range(2):  # a second call reuses any kept staging entry
        dat.data[...] = init.reshape(nto, dim)
        execute_loop(loop, elements)
        assert np.array_equal(bits(dat.data), bits(expected))


@given(st.sampled_from([OP_INC, OP_MIN, OP_MAX]), st.data())
def test_direct_reductions_reach_array_elements(access, data):
    """A direct reduction over an id array lands in the dat, not in a copy."""
    n = data.draw(st.integers(1, 12))
    ids = np.array(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
    init = np.array(data.draw(st.lists(st.one_of(FINITE, SPECIAL), min_size=n, max_size=n)))
    contrib = np.array(
        data.draw(st.lists(st.one_of(FINITE, SPECIAL), min_size=len(ids), max_size=len(ids)))
    )
    src = OpSet("src", n)
    dat = OpDat("d", src, 1, init.reshape(n, 1).copy())

    def kernel(buf):
        buf[:, 0] = contrib

    loop = ParLoop(
        Kernel("k", lambda a: None, kernel), "k", src, (op_arg_dat(dat, -1, OP_ID, access),)
    )
    execute_loop(loop, ids)
    expected = init.reshape(n, 1).copy()
    UFUNC_AT[access](expected, ids, contrib.reshape(-1, 1))
    assert np.array_equal(bits(dat.data), bits(expected))


@given(scatter_world(), st.data())
def test_take_gathers_match_fancy_indexing(world, data):
    """READ and RW buffers equal fancy indexing; RW writes its copy back."""
    nfrom, nto, arity, dim, values, elements = world
    ids = _ids(elements, nfrom)
    src, dst = OpSet("src", nfrom), OpSet("dst", nto)
    m = OpMap("m", src, dst, arity, values)
    ind = OpDat("ind", dst, dim, np.arange(nto * dim, dtype=np.float64).reshape(nto, dim))
    own = OpDat("own", src, dim, np.arange(nfrom * dim, dtype=np.float64).reshape(nfrom, dim) - 7.5)
    access = data.draw(st.sampled_from([OP_READ, OP_RW]))
    args = [op_arg_dat(ind, i, m, access) for i in range(arity)]
    args.append(op_arg_dat(own, -1, OP_ID, access))
    loop = ParLoop(Kernel("g", lambda *a: None, lambda *a: None), "g", src, tuple(args))
    whole = slice(0, nfrom) if elements is None else elements
    buffers, writebacks = gather_args(loop, whole, len(ids))
    for i in range(arity):
        assert np.array_equal(bits(buffers[i]), bits(ind.data[values[ids, i]]))
    assert np.array_equal(bits(buffers[-1]), bits(own.data[ids]))
    if access is OP_RW:
        assert len(writebacks) == arity + 1
        for buf in buffers:  # private copies: writing them leaves the dats alone
            buf += 1.0
        assert np.array_equal(ind.data, np.arange(nto * dim, dtype=np.float64).reshape(nto, dim))
    else:
        assert writebacks == []


@given(st.lists(st.integers(0, 5), max_size=40))
def test_rounds_partition_positions_into_distinct_rows(rows):
    """Round r holds the r-th occurrence of each row, positions ascending."""
    rows = np.array(rows, dtype=np.int64)
    rounds = duplicate_free_rounds(rows)
    seen: dict[int, int] = {}
    covered: list[int] = []
    for r, (round_rows, pos) in enumerate(rounds):
        pos = np.arange(len(rows))[pos]
        assert np.array_equal(round_rows, rows[pos])
        assert len(set(round_rows.tolist())) == len(round_rows)
        assert np.all(np.diff(pos) > 0)
        for p in pos.tolist():
            assert seen.get(int(rows[p]), 0) == r
            seen[int(rows[p])] = r + 1
        covered.extend(pos.tolist())
    assert sorted(covered) == list(range(len(rows)))
