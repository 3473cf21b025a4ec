"""``op_par_loop``: the parallel loop over a set.

The free function :func:`op_par_loop` mirrors the paper's API (Fig 2): it
validates the kernel/argument combination, classifies the loop as direct or
indirect, and hands it to the active :class:`~repro.op2.runtime.Op2Runtime`
for execution under the configured backend. Async-flavored backends return a
future (paper Fig 10); synchronous ones return ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.op2.args import Arg
from repro.op2.exceptions import Op2Error
from repro.op2.kernel import Kernel
from repro.op2.set_ import OpSet


@dataclass(frozen=True)
class ParLoop:
    """A fully-specified loop: kernel applied over a set with typed args."""

    kernel: Kernel
    name: str
    set_: OpSet
    args: tuple[Arg, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise Op2Error("loop name must be non-empty")
        if self.set_.size < 0:
            raise Op2Error("loop set has negative size")
        self.kernel.check_arity(len(self.args))
        for arg in self.args:
            if arg.is_direct and arg.dat.set != self.set_:
                raise Op2Error(
                    f"loop {self.name!r}: direct arg {arg.dat.name!r} lives on "
                    f"{arg.dat.set.name!r}, loop iterates {self.set_.name!r}"
                )
            if arg.is_indirect and arg.map_.from_set != self.set_:
                raise Op2Error(
                    f"loop {self.name!r}: map {arg.map_.name!r} starts from "
                    f"{arg.map_.from_set.name!r}, loop iterates {self.set_.name!r}"
                )

    @property
    def is_direct(self) -> bool:
        """True when no argument is addressed through a map (paper §II-A)."""
        return all(not arg.is_indirect for arg in self.args)

    @property
    def is_indirect(self) -> bool:
        return not self.is_direct

    @property
    def has_indirect_reduction(self) -> bool:
        """Needs plan coloring: increments through a map."""
        return any(a.is_indirect and a.access.is_reduction for a in self.args)

    def describe(self) -> str:
        kind = "direct" if self.is_direct else "indirect"
        args = ", ".join(a.describe() for a in self.args)
        return f"{self.name}[{kind} over {self.set_.name}]({args})"


def op_par_loop(kernel: Kernel, name: str, set_: OpSet, *args: Arg):
    """Execute (or schedule) a parallel loop on the current OP2 runtime.

    Returns whatever the active backend returns: ``None`` for synchronous
    backends (seq/openmp/foreach), a :class:`~repro.hpx.future.Future` for
    async/dataflow backends.
    """
    from repro.op2.runtime import get_op2_runtime

    for i, arg in enumerate(args):
        if not isinstance(arg, Arg):
            raise Op2Error(
                f"op_par_loop {name!r} argument {i} is not an Arg: {arg!r}"
            )
    loop = ParLoop(kernel=kernel, name=name, set_=set_, args=tuple(args))
    return get_op2_runtime().par_loop(loop)
