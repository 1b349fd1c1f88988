"""Data references and the symbol table interning them for Sequitur.

A data reference is a ``(pc, addr)`` pair (Section 2).  Sequitur consumes
non-negative integer terminals, so the profiler interns each distinct pair to
a dense id; the analysis layer maps ids back to references when it turns hot
non-terminals into prefetchable streams.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.errors import AnalysisError
from repro.ir.instructions import Pc


class DataRef(NamedTuple):
    """One data reference: the pc of the load/store and the byte address."""

    pc: Pc
    addr: int

    def __str__(self) -> str:
        return f"({self.pc}, {self.addr:#x})"


class SymbolTable:
    """Bijective interning of :class:`DataRef` pairs to dense integer ids."""

    def __init__(self) -> None:
        self._ids: dict[DataRef, int] = {}
        self._refs: list[DataRef] = []

    def intern(self, pc: Pc, addr: int) -> int:
        """Id for ``(pc, addr)``, allocating on first sight."""
        ref = DataRef(pc, addr)
        sid = self._ids.get(ref)
        if sid is None:
            sid = len(self._refs)
            self._ids[ref] = sid
            self._refs.append(ref)
        return sid

    def intern_batch(self, pairs: Iterable[tuple[Pc, int]]) -> list[int]:
        """Ids for ``(pc, addr)`` pairs in order, exactly as :meth:`intern`.

        A ``(pc, addr)`` tuple hashes and compares equal to its
        :class:`DataRef`, so a known pair costs one dict lookup; the
        ``DataRef`` key is built only on first sighting.
        """
        ids = self._ids
        get = ids.get
        refs = self._refs
        out: list[int] = []
        append = out.append
        for pair in pairs:
            sid = get(pair)  # type: ignore[call-overload]
            if sid is None:
                sid = len(refs)
                ref = DataRef(*pair)
                ids[ref] = sid
                refs.append(ref)
            append(sid)
        return out

    def lookup(self, sid: int) -> DataRef:
        """The reference interned as ``sid``.

        Raises :class:`~repro.errors.AnalysisError` (not ``IndexError``) for
        ids outside the table: an unknown id reaching decode means the
        analysis state is corrupt, and callers contain typed errors only.
        """
        if not 0 <= sid < len(self._refs):
            raise AnalysisError(f"unknown symbol id {sid} (table has {len(self._refs)})")
        return self._refs[sid]

    def decode(self, sids: list[int] | tuple[int, ...]) -> list[DataRef]:
        """Map a sequence of ids back to references (same checks as lookup)."""
        return [self.lookup(s) for s in sids]

    def __len__(self) -> int:
        return len(self._refs)

    def __contains__(self, ref: DataRef) -> bool:
        return ref in self._ids
