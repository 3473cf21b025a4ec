"""``repro.procs`` — the measured rank-per-process SPMD runtime.

Where :mod:`repro.dist` *simulates* distribution (every rank's submesh
stepped inside one process, exchanges as array copies), this package runs
the same :class:`~repro.dist.plan.DistPlan` for real: one OS process per
rank, per-rank dats in named shared-memory segments, halo updates and
accumulations as actual bytes over ``multiprocessing`` pipes, with
blocking and compute-overlapped exchange schedules. Selected via
``RuntimeConfig(mode="procs", num_ranks=R)`` or the CLI's
``dist --mode procs --ranks R``.

Layering: :mod:`~repro.procs.shm` owns segment lifecycle,
:mod:`~repro.procs.transport` owns the wire, :mod:`~repro.procs.worker`
is the in-rank loop runner, :mod:`~repro.procs.driver` orchestrates.
"""

from repro.procs.driver import (
    ProcsConfig,
    ProcsError,
    ProcsResult,
    default_spawn_method,
    run_procs,
)
from repro.procs.shm import AttachedRank, RankLayout, ShmRegistry, leaked_segments
from repro.procs.transport import HaloTransport, RankChannels, build_channels
from repro.dist.plan import split_boundary
from repro.procs.worker import SCHEDULES, RankReport, RankSpec

__all__ = [
    "AttachedRank",
    "HaloTransport",
    "ProcsConfig",
    "ProcsError",
    "ProcsResult",
    "RankChannels",
    "RankLayout",
    "RankReport",
    "RankSpec",
    "SCHEDULES",
    "ShmRegistry",
    "build_channels",
    "default_spawn_method",
    "leaked_segments",
    "run_procs",
    "split_boundary",
]
