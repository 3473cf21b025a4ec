"""Tests for the shared-memory dat registry (segment lifecycle discipline)."""

import numpy as np
import pytest

from repro.airfoil import generate_mesh
from repro.dist.partition import band_partition
from repro.dist.plan import build_dist_plan
from repro.engine.airfoil import CELL_FIELDS
from repro.procs.shm import (
    AttachedRank,
    ShmRegistry,
    leaked_segments,
)
from repro.util.validate import ValidationError


@pytest.fixture(scope="module")
def dplan():
    mesh = generate_mesh(ni=24, nj=12)
    return build_dist_plan(mesh, band_partition(mesh.cells.size, 2))


class TestShmRegistry:
    def test_layout_matches_plan(self, dplan):
        with ShmRegistry(dplan) as reg:
            assert len(reg.layouts) == 2
            for rp, layout in zip(dplan.plans, reg.layouts):
                assert layout.rank == rp.rank
                assert set(layout.segments) == set(CELL_FIELDS)
                n_local = rp.n_owned + rp.n_halo
                assert layout.segments["q"].shape == (n_local, 4)
                assert layout.segments["qold"].shape == (rp.n_owned, 4)
                assert layout.segments["adt"].shape == (n_local, 1)

    def test_arrays_zeroed_and_shared_with_attachments(self, dplan):
        with ShmRegistry(dplan) as reg:
            parent = reg.arrays(0)
            assert all(np.all(a == 0.0) for a in parent.values())
            with AttachedRank(reg.layouts[0]) as att:
                att.arrays["q"][3, 2] = 7.5
                assert parent["q"][3, 2] == 7.5  # same kernel pages
                parent["res"][:] = 1.0
                assert np.all(att.arrays["res"] == 1.0)

    def test_close_unlinks_everything_and_is_idempotent(self, dplan):
        reg = ShmRegistry(dplan)
        names = reg.segment_names
        # While open, every segment is present in the OS...
        assert sorted(leaked_segments(names)) == sorted(names)
        reg.close()
        assert leaked_segments(names) == []
        reg.close()  # idempotent
        with pytest.raises(ValidationError):
            reg.arrays(0)

    def test_segments_exist_while_open(self, dplan):
        reg = ShmRegistry(dplan)
        try:
            # Every named segment is attachable while the registry is open.
            for layout in reg.layouts:
                with AttachedRank(layout):
                    pass
        finally:
            reg.close()
        # ... and gone afterwards.
        for layout in reg.layouts:
            with pytest.raises(FileNotFoundError):
                AttachedRank(layout)

    def test_name_collision_cleans_partial_creation(self, dplan):
        reg = ShmRegistry(dplan, token="fixedtok")
        try:
            names_before = reg.segment_names
            with pytest.raises(FileExistsError):
                ShmRegistry(dplan, token="fixedtok")
            # The failed construction must not have disturbed the original.
            for layout in reg.layouts:
                with AttachedRank(layout):
                    pass
            assert reg.segment_names == names_before
        finally:
            reg.close()
        assert leaked_segments(reg.segment_names) == []

    def test_exception_inside_context_still_cleans(self, dplan):
        names = None
        with pytest.raises(RuntimeError, match="boom"):
            with ShmRegistry(dplan) as reg:
                names = reg.segment_names
                raise RuntimeError("boom")
        assert leaked_segments(names) == []
