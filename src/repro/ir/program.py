"""Program and procedure containers.

A :class:`Procedure` owns a flat instruction list plus a label table.  After
the static editor (``repro.vulcan.static_edit``) has run, a procedure also
carries an ``instrumented_body``: a structurally identical copy whose memory
operations are marked ``traced`` (Figure 2's duplicated code).  ``CHECK``
instructions appear at the same indices in both bodies, which is what lets a
check transfer control between versions by index.

A :class:`Program` maps names to procedures and maintains the *patch table*
used by dynamic editing (Section 3.2): ``resolve`` follows the patch for new
calls, while frames that already entered the original keep executing it —
reproducing the paper's "return addresses still refer to the original
procedures" behaviour.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import EditError, IRError
from repro.ir.instructions import Instr, Load, Pc, Store


class Procedure:
    """A named procedure: parameters, registers, instructions, labels."""

    def __init__(
        self,
        name: str,
        num_params: int,
        num_regs: int,
        body: list[Instr],
        labels: dict[str, int],
    ) -> None:
        if num_params > num_regs:
            raise IRError(f"{name}: {num_params} params but only {num_regs} registers")
        self.name = name
        self.num_params = num_params
        self.num_regs = num_regs
        self.body = body
        self.labels = labels
        #: duplicated, tracing version created by the static editor
        self.instrumented_body: Optional[list[Instr]] = None

    @property
    def is_instrumented(self) -> bool:
        """Whether the static editor has produced a dual-version body."""
        return self.instrumented_body is not None

    def memory_ops(self) -> Iterator[Load | Store]:
        """Iterate the memory instructions of the primary body, in order."""
        for instr in self.body:
            if isinstance(instr, (Load, Store)):
                yield instr

    def pcs(self) -> list[Pc]:
        """The stable pc identities of this procedure's memory operations."""
        return [instr.pc for instr in self.memory_ops()]

    def target(self, label: str) -> int:
        """Instruction index of ``label``."""
        try:
            return self.labels[label]
        except KeyError:
            raise IRError(f"{self.name}: unknown label {label!r}") from None

    def __repr__(self) -> str:
        return f"Procedure({self.name!r}, {len(self.body)} instrs)"


class Program:
    """A collection of procedures with an entry point and a patch table."""

    def __init__(self, procedures: list[Procedure], entry: str) -> None:
        self.procedures: dict[str, Procedure] = {}
        for proc in procedures:
            if proc.name in self.procedures:
                raise IRError(f"duplicate procedure name {proc.name!r}")
            self.procedures[proc.name] = proc
        if entry not in self.procedures:
            raise IRError(f"entry procedure {entry!r} not found")
        self.entry = entry
        self._patches: dict[str, Procedure] = {}

    def resolve(self, name: str) -> Procedure:
        """Procedure a *new* call to ``name`` lands in (follows patches)."""
        patched = self._patches.get(name)
        if patched is not None:
            return patched
        try:
            return self.procedures[name]
        except KeyError:
            raise IRError(f"call to undefined procedure {name!r}") from None

    def original(self, name: str) -> Procedure:
        """The unpatched procedure registered under ``name``."""
        return self.procedures[name]

    def patch(self, name: str, replacement: Procedure) -> None:
        """Redirect future calls of ``name`` to ``replacement`` (a jump patch)."""
        if name not in self.procedures:
            raise EditError(f"cannot patch unknown procedure {name!r}")
        self._patches[name] = replacement

    def unpatch(self, name: str) -> None:
        """Remove the patch for ``name`` (deoptimization)."""
        self._patches.pop(name, None)

    def unpatch_all(self) -> None:
        """Remove every patch (full deoptimization)."""
        self._patches.clear()

    @property
    def patched_names(self) -> set[str]:
        """Names currently redirected by the patch table."""
        return set(self._patches)

    def __repr__(self) -> str:
        return f"Program(entry={self.entry!r}, procs={sorted(self.procedures)})"
