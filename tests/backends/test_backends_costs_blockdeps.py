"""Tests for the cost model and block-level dependence computation."""

import numpy as np
import pytest

from repro.airfoil import AirfoilApp, generate_mesh
from repro.backends.blockdeps import (
    ElementBlockIndex,
    block_dependencies,
    dependency_edge_count,
    touched_per_block,
)
from repro.backends.costs import LoopCostModel, block_costs
from repro.op2 import op2_session
from repro.sim.machine import paper_machine


@pytest.fixture(scope="module")
def airfoil_log():
    mesh = generate_mesh(ni=16, nj=6)
    with op2_session(backend="seq", block_size=16) as rt:
        app = AirfoilApp(mesh)
        app.run(rt, 1)
        return app, rt.log


def find_loop(log, name, occurrence=0):
    loops = [r for r in log.loops() if r.loop.name == name]
    return loops[occurrence]


class TestLoopCostModel:
    def test_deterministic(self, airfoil_log):
        app, log = airfoil_log
        rec = find_loop(log, "adt_calc")
        m = paper_machine()
        a = block_costs(LoopCostModel(), "adt_calc", rec.loop.kernel, rec.plan, m, 4)
        b = block_costs(LoopCostModel(), "adt_calc", rec.loop.kernel, rec.plan, m, 4)
        assert a == b

    def test_costs_scale_with_block_size(self, airfoil_log):
        app, log = airfoil_log
        rec = find_loop(log, "adt_calc")
        m = paper_machine()
        costs = block_costs(LoopCostModel(jitter=0.0), "adt_calc", rec.loop.kernel, rec.plan, m, 1)
        sizes = [len(b) for b in rec.plan.blocks]
        ratio = [c / s for c, s in zip(costs, sizes)]
        assert max(ratio) == pytest.approx(min(ratio))

    def test_jitter_bounded(self, airfoil_log):
        app, log = airfoil_log
        rec = find_loop(log, "adt_calc")
        m = paper_machine()
        j = 0.2
        jittered = block_costs(LoopCostModel(jitter=j), "adt_calc", rec.loop.kernel, rec.plan, m, 1)
        flat = block_costs(LoopCostModel(jitter=0.0), "adt_calc", rec.loop.kernel, rec.plan, m, 1)
        for a, b in zip(jittered, flat):
            assert abs(a / b - 1.0) <= j + 1e-12

    def test_contention_raises_memory_bound_cost(self, airfoil_log):
        app, log = airfoil_log
        rec = find_loop(log, "update")  # mem_fraction 0.8
        m = paper_machine()
        cm = LoopCostModel(jitter=0.0)
        low = sum(block_costs(cm, "update", rec.loop.kernel, rec.plan, m, 4))
        high = sum(block_costs(cm, "update", rec.loop.kernel, rec.plan, m, 16))
        assert high > low

    def test_invalid_jitter(self):
        with pytest.raises(Exception):
            LoopCostModel(jitter=0.95)


class TestElementBlockIndex:
    def test_single_block_per_row(self):
        per_block = [np.array([0, 1]), np.array([2, 3])]
        idx = ElementBlockIndex(per_block, 4)
        np.testing.assert_array_equal(idx.blocks_for(np.array([0])), [0])
        np.testing.assert_array_equal(idx.blocks_for(np.array([3])), [1])

    def test_shared_rows_report_all_blocks(self):
        per_block = [np.array([0, 1]), np.array([1, 2])]
        idx = ElementBlockIndex(per_block, 3)
        np.testing.assert_array_equal(idx.blocks_for(np.array([1])), [0, 1])

    def test_untouched_rows_empty(self):
        idx = ElementBlockIndex([np.array([0])], 4)
        assert idx.blocks_for(np.array([3])).size == 0

    def test_empty_query(self):
        idx = ElementBlockIndex([np.array([0])], 2)
        assert idx.blocks_for(np.array([], dtype=np.int64)).size == 0

    def test_no_blocks(self):
        idx = ElementBlockIndex([], 3)
        assert idx.blocks_for(np.array([0, 1, 2])).size == 0


class TestTouchedPerBlock:
    def test_direct_loop_blocks_touch_own_rows(self, airfoil_log):
        app, log = airfoil_log
        rec = find_loop(log, "save_soln")
        touched = touched_per_block(rec, app.p_q)
        for block, rows in zip(rec.plan.blocks, touched):
            np.testing.assert_array_equal(rows, np.arange(block.start, block.stop))

    def test_untouched_dat_gives_empty(self, airfoil_log):
        app, log = airfoil_log
        rec = find_loop(log, "save_soln")
        touched = touched_per_block(rec, app.p_adt)
        assert all(t.size == 0 for t in touched)

    def test_indirect_loop_touches_mapped_rows(self, airfoil_log):
        app, log = airfoil_log
        rec = find_loop(log, "res_calc")
        touched = touched_per_block(rec, app.p_res)
        mesh_map = app.mesh.pecell.values
        for block, rows in zip(rec.plan.blocks, touched):
            expected = np.unique(mesh_map[block.start : block.stop])
            np.testing.assert_array_equal(rows, expected)


class TestBlockDependencies:
    def test_direct_to_direct_same_blocking_is_identity(self, airfoil_log):
        app, log = airfoil_log
        save = find_loop(log, "save_soln")
        update = find_loop(log, "update")
        deps = block_dependencies(save, update, app.p_qold)
        # Same set, same block size: each block depends exactly on itself.
        for b, producers in enumerate(deps):
            np.testing.assert_array_equal(producers, [b])

    def test_indirect_consumer_depends_on_touching_producers(self, airfoil_log):
        app, log = airfoil_log
        adt = find_loop(log, "adt_calc")
        res = find_loop(log, "res_calc")
        deps = block_dependencies(adt, res, app.p_adt)
        # Every consumer block needs at least one producer block, and the
        # producer blocks it names must cover exactly the cells it reads.
        for b, producers in enumerate(deps):
            assert len(producers) >= 1
            blk = res.plan.blocks[b]
            cells_needed = np.unique(app.mesh.pecell.values[blk.start : blk.stop])
            covered = np.concatenate(
                [adt.plan.block_elements(int(p)) for p in producers]
            )
            assert np.isin(cells_needed, covered).all()

    def test_refinement_is_sparse(self, airfoil_log):
        app, log = airfoil_log
        adt = find_loop(log, "adt_calc")
        res = find_loop(log, "res_calc")
        deps = block_dependencies(adt, res, app.p_adt)
        total = dependency_edge_count(deps)
        # Far fewer edges than the dense bipartite graph.
        assert total < 0.5 * len(deps) * adt.plan.nblocks
