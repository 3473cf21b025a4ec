"""Maps: connectivity between sets (e.g. each edge -> its 2 cells)."""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

from repro.op2.exceptions import MapBoundsError, Op2Error
from repro.op2.set_ import OpSet

#: Process-wide source of map identities (see :attr:`OpMap.uid`).
_UIDS = itertools.count()

#: Sentinel "identity map": the argument is addressed directly by the
#: iteration index (OP2 spells this OP_ID).
OP_ID = None


class OpMap:
    """A fixed-arity mapping ``from_set -> to_set``.

    ``values`` has shape ``(from_set.size, arity)``; entry ``[e, k]`` is the
    index in ``to_set`` of the k-th neighbour of element ``e``. Validated at
    construction — a map that points outside its target set is the classic
    unstructured-mesh input bug.

    ``uid`` is a process-unique identity assigned at construction. Since
    ``values`` is frozen (read-only) after construction, the uid identifies
    the map's *contents*, not just its name — plan caches key on it so two
    same-named maps with different connectivity never alias.

    ``staging`` holds what execution derives from ``values`` for one column
    and one persistent iteration space: the gather rows and the duplicate-free
    scatter rounds (:func:`repro.backends.base.staged_targets`).
    """

    __slots__ = ("name", "from_set", "to_set", "arity", "values", "uid", "staging")

    def __init__(
        self,
        name: str,
        from_set: OpSet,
        to_set: OpSet,
        arity: int,
        values: np.ndarray,
    ) -> None:
        if not name:
            raise Op2Error("map name must be non-empty")
        if arity < 1:
            raise Op2Error(f"map {name!r} arity must be >= 1, got {arity}")
        values = np.ascontiguousarray(values, dtype=np.int64)
        expected = (from_set.size, arity)
        if values.shape != expected:
            raise Op2Error(
                f"map {name!r} values shape {values.shape} != {expected}"
            )
        if from_set.size > 0:
            lo = int(values.min())
            hi = int(values.max())
            if lo < 0 or hi >= to_set.size:
                raise MapBoundsError(
                    f"map {name!r} entries span [{lo}, {hi}], target set "
                    f"{to_set.name!r} has size {to_set.size}"
                )
        self.name = name
        self.from_set = from_set
        self.to_set = to_set
        self.arity = int(arity)
        self.values = values
        self.values.setflags(write=False)
        self.uid = next(_UIDS)
        self.staging: dict[tuple, Any] = {}

    def targets(self, elements: np.ndarray | slice, idx: int) -> np.ndarray:
        """Indices in ``to_set`` addressed by column ``idx`` for ``elements``."""
        if not 0 <= idx < self.arity:
            raise Op2Error(
                f"map {self.name!r} index {idx} out of range [0, {self.arity})"
            )
        return self.values[elements, idx]

    def __repr__(self) -> str:
        return (
            f"OpMap({self.name!r}, {self.from_set.name}->{self.to_set.name}, "
            f"arity={self.arity})"
        )


def op_decl_map(
    from_set: OpSet, to_set: OpSet, arity: int, values: np.ndarray, name: str
) -> OpMap:
    """OP2-style declaration spelling."""
    return OpMap(name, from_set, to_set, arity, values)
