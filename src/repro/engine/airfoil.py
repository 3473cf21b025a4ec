"""THE Airfoil timestep, defined once: its loops and their order.

:data:`AIRFOIL_LOOPS` declares each of the five Airfoil loops once — its
iteration set and its ``op_arg_dat``/``op_arg_gbl`` list. Everything else
is built from it:

- :func:`airfoil_loops` turns the table into the five
  :class:`~repro.op2.parloop.ParLoop` objects for one address space — the
  whole mesh (:class:`repro.airfoil.app.AirfoilApp`, fired through
  ``op_par_loop``) or one rank's submesh
  (:func:`repro.dist.app.build_rank_state`);
- :func:`airfoil_timestep` orders the loops into a
  :class:`~repro.engine.program.LoopProgram` and derives every loop step's
  footprint from the table's access descriptors.

Three shapes of the same arithmetic:

``airfoil_timestep()``
    single address space — five whole-set loops, no exchanges;
``airfoil_timestep(dist=True)``
    SPMD bulk-synchronous (the MPI+OpenMP baseline): whole loops with
    blocking ``update(q, adt)`` / ``accumulate(res)`` exchanges between them;
``airfoil_timestep(dist=True, overlap=True)``
    the HPX-dataflow shape: boundary ``adt_calc`` feeds the wire first,
    interior ``res_calc``/``bres_calc`` run under the in-flight messages,
    only exterior edges wait, and the residual accumulation ships while the
    private (non-exported) cells update.

A shape declares only its step order (loop name, subset), its exchange
steps — which are no ``op_par_loop`` and keep hand-written tokens — and
its *reach* table: the cell regions each (map, subset) pair can touch.
Distributed footprints use region granularity — ``own`` split into ``bnd``
(rows whose residual involves the halo phase: exported rows plus the owned
endpoints of partition-crossing edges) and ``int`` (private interior rows),
plus ``halo`` — which is what lets the derived dependency edges express the
overlap: interior compute never touches a ``halo`` or ``chan`` token, so
nothing orders it after a wait. Residual contributions are ``incs``
footprints, so loop-level consumers that treat increments as commutative
(the async driver's derived syncs) can launch ``res_calc`` and
``bres_calc`` concurrently; the executors use the strict conflict rule.
:meth:`repro.engine.executors.ProgramBindings.validate_for` checks each
rank's real map targets against the reach table once per rank.
"""

from __future__ import annotations

from functools import partial

from repro.engine.program import ExchangeStep, LoopProgram, LoopStep
from repro.op2 import (
    OP_INC,
    OP_READ,
    OP_RW,
    OP_WRITE,
    OpDat,
    OpGlobal,
    OpSet,
    op_arg_dat,
    op_arg_gbl,
)
from repro.op2.parloop import ParLoop

#: Airfoil's fixed Runge-Kutta-style inner iteration count (two half steps).
INNER_ITERS = 2

#: Subset names used by the overlapped program; executors are handed a dict
#: of local element ids under exactly these keys (see
#: :func:`repro.dist.plan.split_boundary`).
CELL_SUBSETS = ("boundary_cells", "interior_cells")
EDGE_SUBSETS = ("interior_edges", "exterior_edges")

#: The five loops: loop name -> (iteration set, arguments). A dat argument
#: is ``(dat, map or None, idx, access)``; a global one is ``(global, access)``.
AIRFOIL_LOOPS: dict[str, tuple[str, tuple[tuple, ...]]] = {
    "save_soln": (
        "cells",
        (("q", None, -1, OP_READ), ("qold", None, -1, OP_WRITE)),
    ),
    "adt_calc": (
        "cells",
        (
            ("x", "pcell", 0, OP_READ),
            ("x", "pcell", 1, OP_READ),
            ("x", "pcell", 2, OP_READ),
            ("x", "pcell", 3, OP_READ),
            ("q", None, -1, OP_READ),
            ("adt", None, -1, OP_WRITE),
        ),
    ),
    "res_calc": (
        "edges",
        (
            ("x", "pedge", 0, OP_READ),
            ("x", "pedge", 1, OP_READ),
            ("q", "pecell", 0, OP_READ),
            ("q", "pecell", 1, OP_READ),
            ("adt", "pecell", 0, OP_READ),
            ("adt", "pecell", 1, OP_READ),
            ("res", "pecell", 0, OP_INC),
            ("res", "pecell", 1, OP_INC),
        ),
    ),
    "bres_calc": (
        "bedges",
        (
            ("x", "pbedge", 0, OP_READ),
            ("x", "pbedge", 1, OP_READ),
            ("q", "pbecell", 0, OP_READ),
            ("adt", "pbecell", 0, OP_READ),
            ("res", "pbecell", 0, OP_INC),
            ("bound", None, -1, OP_READ),
            ("qinf", OP_READ),
        ),
    ),
    "update": (
        "cells",
        (
            ("qold", None, -1, OP_READ),
            ("q", None, -1, OP_WRITE),
            ("res", None, -1, OP_RW),
            ("adt", None, -1, OP_READ),
            ("rms", OP_INC),
        ),
    ),
}


def airfoil_loops(
    kernels: dict,
    sets: dict[str, OpSet],
    maps: object,
    dats: dict[str, OpDat | tuple[OpDat, ...]],
    globals_: dict[str, OpGlobal],
) -> dict[str, ParLoop]:
    """Build the five Airfoil :class:`ParLoop` objects from the table.

    ``sets`` gives the iteration set per table key; ``maps`` is anything
    carrying the five Airfoil maps as attributes (an ``AirfoilMesh`` or a
    ``RankPlan``). A field in ``dats`` may have several views: each argument
    takes the view on the set it addresses — the loop's set for a direct
    argument, the map's target set for an indirect one.
    """
    views = {
        (name, view.set.name): view
        for name, field in dats.items()
        for view in (field if isinstance(field, tuple) else (field,))
    }
    loops = {}
    for name, (set_key, entries) in AIRFOIL_LOOPS.items():
        set_ = sets[set_key]
        args = []
        for entry in entries:
            if len(entry) == 2:
                args.append(op_arg_gbl(globals_[entry[0]], entry[1]))
                continue
            dat, map_name, idx, access = entry
            map_ = None if map_name is None else getattr(maps, map_name)
            target = set_ if map_ is None else map_.to_set
            args.append(op_arg_dat(views[dat, target.name], idx, map_, access))
        loops[name] = ParLoop(kernels[name], name, set_, tuple(args))
    return loops


#: Cell regions an argument can touch per distributed shape, keyed by (map
#: name — or the loop's set for a direct argument —, step subset). An
#: argument with no entry addresses storage no exchange moves (node
#: coordinates, boundary tags, globals) and keeps the bare dat name.
BLOCKING_REACH = {
    ("cells", None): ("own",),
    ("pecell", None): ("own", "halo"),
    ("pbecell", None): ("own",),
}
OVERLAPPED_REACH = {
    ("cells", None): ("bnd", "int"),
    ("cells", "boundary_cells"): ("bnd",),
    ("cells", "interior_cells"): ("int",),
    ("pecell", "interior_edges"): ("bnd", "int"),
    ("pecell", "exterior_edges"): ("bnd", "halo"),
    ("pbecell", None): ("bnd", "int"),
}


def loop_step(name: str, subset: str | None = None, reach: dict | None = None) -> LoopStep:
    """The program step of one table loop, its footprint derived from the table.

    READ arguments are reads, WRITE ones writes, RW both, and reductions
    ``incs``; ``reach`` turns each argument's dat name into its region tokens.
    """
    set_key, entries = AIRFOIL_LOOPS[name]
    footprint: dict[str, dict[str, None]] = {"reads": {}, "writes": {}, "incs": {}}
    for entry in entries:
        if len(entry) == 2:
            (dat, access), how = entry, None
        else:
            dat, map_name, _idx, access = entry
            how = map_name or set_key
        regions = (reach or {}).get((how, subset))
        tokens = dict.fromkeys([dat] if regions is None else [f"{dat}:{r}" for r in regions])
        if access.is_reduction:
            footprint["incs"].update(tokens)
            continue
        if access.reads:
            footprint["reads"].update(tokens)
        if access.writes:
            footprint["writes"].update(tokens)
    return LoopStep(name, subset, **{k: tuple(v) for k, v in footprint.items()})


def _local_steps(inner_iters: int) -> tuple:
    """Single-address-space program: plain dat-name tokens, no exchanges."""
    inner = tuple(map(loop_step, ("adt_calc", "res_calc", "bres_calc", "update")))
    return (loop_step("save_soln"),) + inner * inner_iters


def _blocking_steps(inner_iters: int) -> tuple:
    """SPMD bulk-synchronous program: own/halo region tokens."""
    step = partial(loop_step, reach=BLOCKING_REACH)
    inner = (
        step("adt_calc"),
        ExchangeStep(
            "update", "blocking", ("q", "adt"),
            reads=("q:own", "adt:own", "chan:update"),
            writes=("q:halo", "adt:halo", "chan:update"),
        ),
        step("res_calc"),
        step("bres_calc"),
        ExchangeStep(
            "accumulate", "blocking", ("res",),
            reads=("res:halo", "chan:accumulate"),
            writes=("res:halo", "chan:accumulate"),
            incs=("res:own",),
        ),
        step("update"),
    )
    return (step("save_soln"),) + inner * inner_iters


def _overlapped_steps(inner_iters: int) -> tuple:
    """SPMD overlapped program: bnd/int/halo region tokens.

    Only exported (``bnd``) rows feed the wire and only ``halo``/``chan``
    tokens order anything after a wait, so the derived DAG leaves every
    interior step free to run under the in-flight messages.
    """
    step = partial(loop_step, reach=OVERLAPPED_REACH)
    inner = (
        step("adt_calc", "boundary_cells"),
        ExchangeStep(
            "update", "start", ("q", "adt"),
            reads=("q:bnd", "adt:bnd", "chan:update"),
            writes=("chan:update",),
        ),
        step("adt_calc", "interior_cells"),
        step("res_calc", "interior_edges"),
        step("bres_calc"),
        ExchangeStep(
            "update", "wait", ("q", "adt"),
            reads=("chan:update",),
            writes=("q:halo", "adt:halo", "chan:update"),
        ),
        step("res_calc", "exterior_edges"),
        ExchangeStep(
            "accumulate", "start", ("res",),
            reads=("res:halo", "chan:accumulate"),
            writes=("res:halo", "chan:accumulate"),
        ),
        step("update", "interior_cells"),
        ExchangeStep(
            "accumulate", "wait", ("res",),
            reads=("chan:accumulate",),
            writes=("chan:accumulate",),
            incs=("res:bnd",),
        ),
        step("update", "boundary_cells"),
    )
    return (step("save_soln"),) + inner * inner_iters


def airfoil_timestep(
    *, dist: bool = False, overlap: bool = False, inner_iters: int = INNER_ITERS
) -> LoopProgram:
    """Build the canonical Airfoil timestep program for one schedule."""
    if overlap and not dist:
        raise ValueError("overlap=True requires dist=True (halo exchanges)")
    if not dist:
        return LoopProgram("airfoil.local", _local_steps(inner_iters))
    if not overlap:
        return LoopProgram("airfoil.blocking", _blocking_steps(inner_iters))
    return LoopProgram(
        "airfoil.overlapped",
        _overlapped_steps(inner_iters),
        partitions={"cells": CELL_SUBSETS, "edges": EDGE_SUBSETS},
    )
