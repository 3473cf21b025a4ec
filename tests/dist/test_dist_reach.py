"""The overlapped shape's reach table holds on real rank numberings.

Each loop step's region tokens are derived from the Airfoil loop table and a
per-shape reach table (``pecell`` from ``exterior_edges`` reaches ``bnd`` and
``halo``, ...). ``ProgramBindings.validate_for`` checks every indirect
argument's map targets against those regions once per rank, so a split that
disagrees with the table fails before any loop runs.
"""

import numpy as np
import pytest

from repro.airfoil import generate_mesh
from repro.airfoil.constants import DEFAULT_CONSTANTS
from repro.airfoil.kernels import make_kernels
from repro.dist.app import build_rank_state, make_owner
from repro.dist.plan import build_dist_plan, split_boundary
from repro.engine import ProgramBindings, airfoil_timestep
from repro.op2 import OpGlobal
from repro.util.validate import ValidationError


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(ni=48, nj=24)


def rank_bindings(rp, subsets):
    freestream = DEFAULT_CONSTANTS.freestream()
    state = build_rank_state(
        rp, make_kernels(DEFAULT_CONSTANTS), OpGlobal("qinf", 4, freestream), freestream
    )
    return ProgramBindings(
        loops=state.loops,
        subsets=subsets,
        space_sizes={"cells": rp.n_owned, "edges": rp.edges_set.size},
    )


@pytest.mark.parametrize("partitioner", ["rcb", "band"])
@pytest.mark.parametrize("ranks", [2, 3, 5])
def test_real_splits_satisfy_the_reach_tables(mesh, partitioner, ranks):
    dplan = build_dist_plan(mesh, make_owner(mesh, ranks, partitioner))
    for rp in dplan.plans:
        bindings = rank_bindings(rp, split_boundary(rp))
        for overlap in (False, True):
            bindings.validate_for(airfoil_timestep(dist=True, overlap=overlap))


def test_exterior_edge_in_the_interior_subset_is_rejected(mesh):
    rp = build_dist_plan(mesh, make_owner(mesh, 2, "rcb")).plans[0]
    split = split_boundary(rp)
    moved, split["exterior_edges"] = split["exterior_edges"][0], split["exterior_edges"][1:]
    split["interior_edges"] = np.sort(np.append(split["interior_edges"], moved))
    bindings = rank_bindings(rp, split)
    # still an exact partition of the edges: only the reach check can tell
    with pytest.raises(ValidationError, match=r"'res_calc' over subset 'interior_edges'"):
        bindings.validate_for(airfoil_timestep(dist=True, overlap=True))


def test_owned_row_outside_the_boundary_subset_is_rejected(mesh):
    """An exterior edge's owned endpoint counted as interior breaks ``bnd``."""
    rp = build_dist_plan(mesh, make_owner(mesh, 2, "rcb")).plans[0]
    split = split_boundary(rp)
    ext_rows = rp.pecell.values[split["exterior_edges"]].ravel()
    row = ext_rows[ext_rows < rp.n_owned][0]
    split["boundary_cells"] = split["boundary_cells"][split["boundary_cells"] != row]
    split["interior_cells"] = np.sort(np.append(split["interior_cells"], row))
    bindings = rank_bindings(rp, split)
    with pytest.raises(ValidationError, match=rf"'res_calc' over subset 'exterior_edges'.*row {row} \(int\)"):
        bindings.validate_for(airfoil_timestep(dist=True, overlap=True))
