"""Halo exchanges between rank-local cell dats.

Two primitives, exactly OP2's MPI halo semantics:

- :meth:`HaloExchange.update` — owner -> halo copy: after a loop writes an
  owned cell dat that indirect loops will read through the halo (q, adt);
- :meth:`HaloExchange.accumulate` — halo -> owner addition: after indirect
  increments landed in halo rows (res from res_calc on boundary edges), the
  partial sums travel back to the owner and the halo rows are zeroed.

The "communication" is array copying between the per-rank numpy arrays —
the data motion is real (and byte-counted for the cost model); only the wire
is simulated.
"""

from __future__ import annotations

import numpy as np

from repro.dist.plan import DistPlan
from repro.util.validate import ValidationError


class HaloExchange:
    """Executes halo traffic for one distribution plan."""

    def __init__(self, plan: DistPlan) -> None:
        self.plan = plan
        #: bytes moved by each primitive since construction (for the model).
        self.bytes_updated = 0
        self.bytes_accumulated = 0
        self.update_count = 0
        self.accumulate_count = 0
        #: point-to-point messages each primitive implied (one per
        #: neighbor pair per call) — calibration compares these modeled
        #: counts against what a real transport actually sent.
        self.messages_updated = 0
        self.messages_accumulated = 0

    def _check(self, arrays: list[np.ndarray]) -> None:
        if len(arrays) != self.plan.ranks:
            raise ValidationError(
                f"need one array per rank ({self.plan.ranks}), got {len(arrays)}"
            )
        for r, (arr, rp) in enumerate(zip(arrays, self.plan.plans)):
            expected = rp.n_owned + rp.n_halo
            if arr.shape[0] != expected:
                raise ValidationError(
                    f"rank {r} array has {arr.shape[0]} rows, plan expects "
                    f"{expected} (owned {rp.n_owned} + halo {rp.n_halo})"
                )

    def update(self, arrays: list[np.ndarray]) -> None:
        """Refresh every halo row from its owner (owner -> halo copy)."""
        self._check(arrays)
        for s, rp in enumerate(self.plan.plans):
            for r, import_idx in rp.imports.items():
                export_idx = self.plan.plans[r].exports[s]
                arrays[s][import_idx] = arrays[r][export_idx]
                self.bytes_updated += arrays[s][import_idx].nbytes
                self.messages_updated += 1
        self.update_count += 1

    def accumulate(self, arrays: list[np.ndarray]) -> None:
        """Add halo contributions into the owners and zero the halo rows."""
        self._check(arrays)
        for s, rp in enumerate(self.plan.plans):
            for r, import_idx in rp.imports.items():
                export_idx = self.plan.plans[r].exports[s]
                arrays[r][export_idx] += arrays[s][import_idx]
                self.bytes_accumulated += arrays[s][import_idx].nbytes
                self.messages_accumulated += 1
                arrays[s][import_idx] = 0.0
        self.accumulate_count += 1

    def comm_counters(self) -> dict[str, int]:
        """Message/byte counters in the shape ``op_timing_output`` reports.

        The same keys are produced by the procs-mode transport
        (:class:`repro.procs.transport.HaloTransport`), so modeled and
        measured halo traffic line up column for column.
        """
        return {
            "messages_updated": self.messages_updated,
            "messages_accumulated": self.messages_accumulated,
            "bytes_updated": self.bytes_updated,
            "bytes_accumulated": self.bytes_accumulated,
        }
