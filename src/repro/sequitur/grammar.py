"""Grammar handles for the flat Sequitur engine.

Since the flat-core refactor the grammar's structure lives in parallel
integer arrays owned by :class:`~repro.sequitur.sequitur.Sequitur` (prev/
next links, digram keys, owners, a free list).  A :class:`Rule` is a
*handle* into that storage: it carries the rule id, the externally-mutable
refcount and the slot index of the rule's guard node, plus a backref to the
engine so the public ``rhs()`` view keeps working for downstream consumers
(the oracle's brute-force checker, ``to_text``).

Digram keys encode terminals as themselves and rule ids as negative
integers (``-1 - rule_id``), exactly as the original linked-object
implementation did — the linked reference now lives in
:mod:`repro.oracle.refsequitur` as the differential baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sequitur.sequitur import Sequitur


class Rule:
    """Handle for one grammar rule; the body lives in the engine's arrays."""

    __slots__ = ("id", "refcount", "guard", "eng")

    def __init__(self, rule_id: int, guard: int, eng: "Sequitur") -> None:
        self.id = rule_id
        #: number of non-terminal symbols referring to this rule
        self.refcount = 0
        #: slot index of this rule's guard node in the engine's arrays
        self.guard = guard
        self.eng = eng

    def rhs(self) -> list[Union[int, "Rule"]]:
        """Body as a list of terminals and Rule references."""
        eng = self.eng
        nxt = eng._nxt
        key = eng._key
        rules = eng.rules
        out: list[Union[int, Rule]] = []
        g = self.guard
        s = nxt[g]
        while s != g:
            k = key[s]
            out.append(k if k >= 0 else rules[-1 - k])
            s = nxt[s]
        return out

    def rhs_length(self) -> int:
        """Number of symbols on the right-hand side."""
        eng = self.eng
        nxt = eng._nxt
        g = self.guard
        n = 0
        s = nxt[g]
        while s != g:
            n += 1
            s = nxt[s]
        return n

    def __reduce__(self):  # pragma: no cover - defensive
        # A handle is meaningless without its engine's arrays; grammars are
        # serialized as a whole (:meth:`Sequitur.__getstate__`).
        raise TypeError("Rule is not picklable on its own; pickle the Sequitur")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rule(R{self.id}, refs={self.refcount})"
