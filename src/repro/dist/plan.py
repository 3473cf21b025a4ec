"""Per-rank localization: the owner-compute distribution plan.

Follows OP2's MPI design: cells are partitioned among ranks (owner-compute);
an edge is computed by the owner of its first cell; boundary edges by the
owner of their cell. Cells a rank touches but does not own form its *halo*.
Each rank gets fully renumbered local sets and maps (owned cells first, halo
appended), so the unmodified kernels and gather/scatter machinery run on the
local submesh as-is.

Import/export lists pair up across ranks: rank r's export to s lists the
owned-local indices whose values s stores in its halo, in exactly the order
of s's import list from r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.airfoil.meshgen import AirfoilMesh
from repro.op2 import OpMap, OpSet
from repro.util.validate import ValidationError


@dataclass
class RankPlan:
    """Everything one rank needs to run locally."""

    rank: int
    #: global ids of owned cells, ascending.
    owned_cells: np.ndarray
    #: global ids of halo cells (owned elsewhere), ascending.
    halo_cells: np.ndarray
    #: global ids of the edges / bedges this rank computes.
    edges: np.ndarray
    bedges: np.ndarray
    #: global ids of the nodes referenced locally.
    nodes: np.ndarray

    #: local sets (cells set covers owned + halo; loops iterate owned only).
    cells_set: OpSet = field(repr=False, default=None)
    owned_set: OpSet = field(repr=False, default=None)
    edges_set: OpSet = field(repr=False, default=None)
    bedges_set: OpSet = field(repr=False, default=None)
    nodes_set: OpSet = field(repr=False, default=None)

    #: renumbered maps (into local cell / node numbering).
    pecell: OpMap = field(repr=False, default=None)
    pedge: OpMap = field(repr=False, default=None)
    pbecell: OpMap = field(repr=False, default=None)
    pbedge: OpMap = field(repr=False, default=None)
    pcell: OpMap = field(repr=False, default=None)

    #: local node coordinates, aligned with ``nodes``.
    x_local: np.ndarray = field(repr=False, default=None)
    #: local bedge boundary tags.
    bound_local: np.ndarray = field(repr=False, default=None)

    #: neighbor rank -> local (owned-region) indices to send, paired with the
    #: neighbor's import order.
    exports: dict[int, np.ndarray] = field(default_factory=dict)
    #: neighbor rank -> local (halo-region) indices to fill on receive.
    imports: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_owned(self) -> int:
        return len(self.owned_cells)

    @property
    def n_halo(self) -> int:
        return len(self.halo_cells)


@dataclass
class DistPlan:
    """The complete distribution: one :class:`RankPlan` per rank."""

    ranks: int
    owner: np.ndarray  # rank per global cell
    plans: list[RankPlan]

    def total_halo(self) -> int:
        return sum(p.n_halo for p in self.plans)

    def describe(self) -> str:
        halos = [p.n_halo for p in self.plans]
        return (
            f"{self.ranks} ranks, halo cells per rank "
            f"min/mean/max = {min(halos)}/{np.mean(halos):.0f}/{max(halos)}"
        )


def _local_index_map(global_ids: np.ndarray, size: int) -> np.ndarray:
    """Dense global->local lookup (-1 where absent)."""
    lookup = np.full(size, -1, dtype=np.int64)
    lookup[global_ids] = np.arange(len(global_ids), dtype=np.int64)
    return lookup


def build_dist_plan(mesh: AirfoilMesh, owner: np.ndarray) -> DistPlan:
    """Localize ``mesh`` according to the cell->rank assignment ``owner``."""
    owner = np.asarray(owner, dtype=np.int64)
    if owner.shape != (mesh.cells.size,):
        raise ValidationError(
            f"owner must assign every cell: shape {owner.shape} != "
            f"({mesh.cells.size},)"
        )
    ranks = int(owner.max()) + 1
    if owner.min() < 0:
        raise ValidationError("owner ranks must be >= 0")
    if ranks > mesh.cells.size:
        raise ValidationError(
            f"cannot distribute {mesh.cells.size} cells over {ranks} ranks: "
            "every rank must own at least one cell"
        )

    pecell = mesh.pecell.values
    pbecell = mesh.pbecell.values
    edge_owner = owner[pecell[:, 0]]
    bedge_owner = owner[pbecell[:, 0]]

    plans: list[RankPlan] = []
    for r in range(ranks):
        owned = np.flatnonzero(owner == r).astype(np.int64)
        if owned.size == 0:
            raise ValidationError(f"rank {r} owns no cells; partition degenerate")
        my_edges = np.flatnonzero(edge_owner == r).astype(np.int64)
        my_bedges = np.flatnonzero(bedge_owner == r).astype(np.int64)

        touched = np.unique(pecell[my_edges].ravel())
        halo = touched[owner[touched] != r]
        local_cells = np.concatenate([owned, halo])

        node_refs = [
            mesh.pedge.values[my_edges].ravel(),
            mesh.pbedge.values[my_bedges].ravel(),
            mesh.pcell.values[owned].ravel(),
        ]
        nodes = np.unique(np.concatenate(node_refs))

        cell_lookup = _local_index_map(local_cells, mesh.cells.size)
        node_lookup = _local_index_map(nodes, mesh.nodes.size)

        cells_set = OpSet(f"cells.r{r}", len(local_cells))
        owned_set = OpSet(f"owned_cells.r{r}", len(owned))
        edges_set = OpSet(f"edges.r{r}", len(my_edges))
        bedges_set = OpSet(f"bedges.r{r}", len(my_bedges))
        nodes_set = OpSet(f"nodes.r{r}", len(nodes))

        plans.append(
            RankPlan(
                rank=r,
                owned_cells=owned,
                halo_cells=halo,
                edges=my_edges,
                bedges=my_bedges,
                nodes=nodes,
                cells_set=cells_set,
                owned_set=owned_set,
                edges_set=edges_set,
                bedges_set=bedges_set,
                nodes_set=nodes_set,
                pecell=OpMap(
                    f"pecell.r{r}",
                    edges_set,
                    cells_set,
                    2,
                    cell_lookup[pecell[my_edges]],
                ),
                pedge=OpMap(
                    f"pedge.r{r}",
                    edges_set,
                    nodes_set,
                    2,
                    node_lookup[mesh.pedge.values[my_edges]],
                ),
                pbecell=OpMap(
                    f"pbecell.r{r}",
                    bedges_set,
                    cells_set,
                    1,
                    cell_lookup[pbecell[my_bedges]],
                ),
                pbedge=OpMap(
                    f"pbedge.r{r}",
                    bedges_set,
                    nodes_set,
                    2,
                    node_lookup[mesh.pbedge.values[my_bedges]],
                ),
                pcell=OpMap(
                    f"pcell.r{r}",
                    owned_set,
                    nodes_set,
                    4,
                    node_lookup[mesh.pcell.values[owned]],
                ),
                x_local=mesh.x.data[nodes].copy(),
                bound_local=mesh.bound.data[my_bedges].copy(),
            )
        )

    # Import/export pairing: rank s imports its halo cells from their owners,
    # in s's halo order; the owner's export list mirrors that exact order.
    for s, plan in enumerate(plans):
        halo_owner = owner[plan.halo_cells]
        for r in np.unique(halo_owner):
            r = int(r)
            wanted = plan.halo_cells[halo_owner == r]  # global ids, s's order
            # s-side: positions in the halo region (offset by n_owned).
            halo_pos = np.flatnonzero(np.isin(plan.halo_cells, wanted))
            plan.imports[r] = plan.n_owned + halo_pos
            # r-side: local owned indices of those globals, same order.
            r_lookup = _local_index_map(plans[r].owned_cells, mesh.cells.size)
            plans[r].exports[s] = r_lookup[wanted]
            if np.any(plans[r].exports[s] < 0):  # pragma: no cover - invariant
                raise ValidationError("export refers to non-owned cell")

    return DistPlan(ranks=ranks, owner=owner, plans=plans)


def split_boundary(rp: RankPlan) -> dict[str, np.ndarray]:
    """Boundary/interior split of one rank's iteration spaces (local ids).

    ``exterior_edges`` touch at least one halo cell and must wait for the
    imports; ``interior_edges`` see only owned rows. ``boundary_cells`` are
    the owned rows whose residual is not final until the exterior edges and
    the remote accumulation have landed: the exported rows (remote
    contributions arrive there) *plus* the owned endpoints of exterior
    edges. The latter are not always exported — a shared edge belongs to
    exactly one rank, so its owned endpoint may be a cell no neighbor ever
    imports — but their residual still includes an exterior-edge flux, so
    they must not update while the halo phase is in flight.
    ``interior_cells`` is the complement: rows only interior edges and
    boundary edges touch, free to update under the in-flight accumulation.
    """
    pecell = rp.pecell.values
    exterior_mask = (pecell >= rp.n_owned).any(axis=1)
    ext_rows = pecell[exterior_mask].ravel()
    pieces = [ext_rows[ext_rows < rp.n_owned]]
    if rp.exports:
        pieces.extend(rp.exports.values())
    boundary = np.unique(np.concatenate(pieces).astype(np.int64))
    interior = np.setdiff1d(
        np.arange(rp.n_owned, dtype=np.int64), boundary, assume_unique=True
    )
    return {
        "boundary_cells": boundary,
        "interior_cells": interior,
        "exterior_edges": np.flatnonzero(exterior_mask).astype(np.int64),
        "interior_edges": np.flatnonzero(~exterior_mask).astype(np.int64),
    }
