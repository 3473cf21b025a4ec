"""The loop-program IR: structure, conflicts, derived edges.

The engine's correctness rests on the programs being *data* with accurate
footprints: every consumer (drivers, emitters, executors) derives its
ordering from these, so the tests pin both the structural invariants and
the dependence-analysis semantics (strict vs commuting increments).
"""

import pytest

from repro.engine import INNER_ITERS, airfoil_timestep
from repro.engine.program import (
    ExchangeStep,
    LoopProgram,
    LoopStep,
    steps_conflict,
)
from repro.util.validate import ValidationError


class TestStepBasics:
    def test_loop_step_label(self):
        assert LoopStep("res_calc").label == "res_calc"
        assert (
            LoopStep("res_calc", "interior_edges").label
            == "res_calc[interior_edges]"
        )
        assert LoopStep("res_calc").kind == "loop"

    def test_exchange_step_method_and_label(self):
        s = ExchangeStep("update", "start", ("q", "adt"))
        assert s.method == "update_start"
        assert s.label == "halo.update.start"
        assert s.kind == "exchange"

    def test_exchange_step_rejects_unknown_op_and_phase(self):
        with pytest.raises(ValidationError, match="exchange op"):
            ExchangeStep("gossip", "start", ("q",))
        with pytest.raises(ValidationError, match="exchange phase"):
            ExchangeStep("update", "maybe", ("q",))


class TestConflicts:
    def test_read_write_conflicts(self):
        w = LoopStep("a", writes=("q",))
        r = LoopStep("b", reads=("q",))
        assert steps_conflict(w, r)
        assert steps_conflict(r, w)
        assert not steps_conflict(r, LoopStep("c", reads=("q",)))

    def test_disjoint_footprints_do_not_conflict(self):
        a = LoopStep("a", reads=("x",), writes=("adt:int",))
        b = LoopStep("b", reads=("x",), incs=("res:bnd",))
        assert not steps_conflict(a, b)
        assert not steps_conflict(a, b, commute_incs=True)

    def test_incs_commute_only_when_asked(self):
        res = LoopStep("res_calc", reads=("q",), incs=("res",))
        bres = LoopStep("bres_calc", reads=("q",), incs=("res",))
        # strict: concurrent increments into shared rows are a data race
        assert steps_conflict(res, bres)
        # loop-granularity consumers may commute them
        assert not steps_conflict(res, bres, commute_incs=True)

    def test_incs_still_conflict_with_reads_and_writes(self):
        inc = LoopStep("a", incs=("res",))
        rd = LoopStep("b", reads=("res",))
        wr = LoopStep("c", writes=("res",))
        for commute in (False, True):
            assert steps_conflict(inc, rd, commute_incs=commute)
            assert steps_conflict(rd, inc, commute_incs=commute)
            assert steps_conflict(inc, wr, commute_incs=commute)
            assert steps_conflict(wr, inc, commute_incs=commute)


class TestAirfoilPrograms:
    def test_shapes(self):
        local = airfoil_timestep()
        blocking = airfoil_timestep(dist=True)
        overlapped = airfoil_timestep(dist=True, overlap=True)
        assert len(local) == 1 + 4 * INNER_ITERS
        assert len(blocking) == 1 + 6 * INNER_ITERS
        assert len(overlapped) == 1 + 11 * INNER_ITERS
        for p in (local, blocking, overlapped):
            p.validate()
        assert local.loop_names() == (
            "save_soln", "adt_calc", "res_calc", "bres_calc", "update",
        )

    def test_overlap_requires_dist(self):
        with pytest.raises(ValueError, match="dist=True"):
            airfoil_timestep(overlap=True)

    def test_overlapped_declares_exact_partitions(self):
        p = airfoil_timestep(dist=True, overlap=True)
        assert p.partitions == {
            "cells": ("boundary_cells", "interior_cells"),
            "edges": ("interior_edges", "exterior_edges"),
        }
        assert set(p.subset_names()) == {
            "boundary_cells", "interior_cells",
            "interior_edges", "exterior_edges",
        }

    def test_local_strict_edges(self):
        # save -> (adt -> res -> bres -> update) x2, update feeding back into
        # the next adt and save's qold feeding the first update.
        p = airfoil_timestep()
        assert p.edges() == (
            (), (), (1,), (2,), (0, 3), (4,), (5,), (6,), (7,),
        )

    def test_local_commuting_edges_free_res_and_bres(self):
        p = airfoil_timestep()
        strict = p.edges()
        commuting = p.edges(commute_incs=True)
        # bres_calc (index 3) no longer waits on res_calc (index 2)
        assert 2 in strict[3]
        assert 2 not in commuting[3]
        # but update still waits on both residual producers
        assert set(commuting[4]) >= {2, 3}

    def test_overlapped_interior_compute_ignores_inflight_halo(self):
        p = airfoil_timestep(dist=True, overlap=True)
        edges = p.edges()
        steps = p.steps
        start = next(
            i for i, s in enumerate(steps)
            if s.kind == "exchange" and s.phase == "start" and s.op == "update"
        )
        wait = next(
            i for i, s in enumerate(steps)
            if s.kind == "exchange" and s.phase == "wait" and s.op == "update"
        )
        interior = [
            i for i, s in enumerate(steps)
            if s.kind == "loop" and s.subset in ("interior_cells", "interior_edges")
            and i < wait
        ]
        assert interior, "program must place interior work before the wait"
        for i in interior:
            assert start not in edges[i]
            assert wait not in edges[i]
        # the exterior edges do wait for the imports
        ext = next(
            i for i, s in enumerate(steps)
            if s.kind == "loop" and s.subset == "exterior_edges"
        )
        assert wait in edges[ext]

    def test_unrolled_edges_chain_timesteps(self):
        p = airfoil_timestep()
        n = len(p)
        edges = p.unrolled_edges(2)
        assert len(edges) == 2 * n
        # the second timestep's save_soln reads q written by the first
        # timestep's final update -> a cross-repeat edge, no global barrier
        cross = [j for i in range(n, 2 * n) for j in edges[i] if j < n]
        assert cross, "expected cross-timestep dependence edges"
        with pytest.raises(ValidationError, match="repeats"):
            p.unrolled_edges(0)


class TestValidate:
    def test_double_start_rejected(self):
        p = LoopProgram("bad", (
            ExchangeStep("update", "start", ("q",)),
            ExchangeStep("update", "start", ("q",)),
        ))
        with pytest.raises(ValidationError, match="started twice"):
            p.validate()

    def test_wait_without_start_rejected(self):
        p = LoopProgram("bad", (ExchangeStep("update", "wait", ("q",)),))
        with pytest.raises(ValidationError, match="without a matching start"):
            p.validate()

    def test_blocking_during_inflight_rejected(self):
        p = LoopProgram("bad", (
            ExchangeStep("update", "start", ("q",)),
            ExchangeStep("update", "blocking", ("q",)),
        ))
        with pytest.raises(ValidationError, match="in flight"):
            p.validate()

    def test_dangling_inflight_rejected(self):
        p = LoopProgram("bad", (ExchangeStep("accumulate", "start", ("res",)),))
        with pytest.raises(ValidationError, match="ends with in-flight"):
            p.validate()


#: Derived edges of the three Airfoil shapes. The literals were captured from
#: the hand-written footprints that preceded the loop table, so any change to
#: the table, a reach table or an exchange token that moves an edge shows here.
PINNED_EDGES = {
    "local": {
        "strict": (
            (), (), (1,), (2,), (0, 3), (4,), (5,), (6,), (7,),
        ),
        "commuting": (
            (), (), (1,), (1,), (0, 2, 3), (4,), (5,), (5,), (6, 7),
        ),
        "unrolled2_commuting": (
            (), (), (1,), (1,), (0, 2, 3), (4,), (5,), (5,), (6, 7), (8,), (8,), (10,),
            (10,), (9, 11, 12), (13,), (14,), (14,), (15, 16),
        ),
    },
    "blocking": {
        "strict": (
            (), (), (1,), (2,), (3,), (4,), (0, 5), (6,), (7,), (8,), (9,), (10,),
            (11,),
        ),
        "commuting": (
            (), (), (1,), (2,), (1,), (3,), (0, 4, 5), (6,), (7,), (8,), (7,), (9,),
            (10, 11),
        ),
        "unrolled2_commuting": (
            (), (), (1,), (2,), (1,), (3,), (0, 4, 5), (6,), (7,), (8,), (7,), (9,),
            (10, 11), (12,), (12,), (14,), (15,), (14,), (16,), (13, 17, 18), (19,),
            (20,), (21,), (20,), (22,), (23, 24),
        ),
    },
    "overlapped": {
        "strict": (
            (), (), (1,), (), (1, 3), (4,), (2,), (5, 6), (7,), (0, 5), (8,), (9, 10),
            (11,), (12,), (9,), (12, 14), (15,), (13,), (16, 17), (18,), (16,), (19,),
            (20, 21),
        ),
        "commuting": (
            (), (), (1,), (), (1, 3), (1, 3), (2,), (6,), (7,), (0, 4, 5), (8,),
            (0, 4, 5, 10), (11,), (12,), (9,), (12, 14), (12, 14), (13,), (17,), (18,),
            (15, 16), (19,), (15, 16, 21),
        ),
        "unrolled2_commuting": (
            (), (), (1,), (), (1, 3), (1, 3), (2,), (6,), (7,), (0, 4, 5), (8,),
            (0, 4, 5, 10), (11,), (12,), (9,), (12, 14), (12, 14), (13,), (17,), (18,),
            (15, 16), (19,), (15, 16, 21), (20, 22), (22,), (24,), (20,), (24, 26),
            (24, 26), (25,), (29,), (30,), (23, 27, 28), (31,), (23, 27, 28, 33), (34,),
            (35,), (32,), (35, 37), (35, 37), (36,), (40,), (41,), (38, 39), (42,),
            (38, 39, 44),
        ),
    },
}

SHAPES = {
    "local": {},
    "blocking": {"dist": True},
    "overlapped": {"dist": True, "overlap": True},
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_derived_programs_keep_their_edges(shape):
    p = airfoil_timestep(**SHAPES[shape])
    pinned = PINNED_EDGES[shape]
    assert p.edges() == pinned["strict"]
    assert p.edges(commute_incs=True) == pinned["commuting"]
    assert p.unrolled_edges(2, commute_incs=True) == pinned["unrolled2_commuting"]
