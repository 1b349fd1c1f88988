"""Incremental Sequitur (Nevill-Manning & Witten), Section 2.3 / Figure 4.

Sequitur builds, online and in O(n) amortized time, a context-free grammar
whose language is exactly the input string, by enforcing two invariants:

* **digram uniqueness** — no pair of adjacent symbols occurs more than once
  in the grammar; a repeated digram is replaced by a non-terminal, and
* **rule utility** — every rule (except the start rule) is used at least
  twice; an under-used rule is inlined and deleted.

Terminals are non-negative integers (the profiling layer interns data
references ``(pc, addr)`` to such ids).

**Flat core.**  The grammar is stored in parallel integer arrays rather
than per-symbol linked objects: ``_nxt``/``_prv`` hold the doubly-linked
body lists (slot indices), ``_key`` holds each slot's digram key (terminal
``t`` as ``t``, rule ``r`` as ``-1 - r``, guards as ``None``), ``_own``
holds ownership (a body slot holds its rule's guard slot, a guard slot
holds its rule id, so renaming a rule is one write), and ``_free``
recycles slots.  The digram index maps a packed 64-bit key (two
32-bit-masked digram keys) to the left slot of the indexed occurrence.
:meth:`extend_batch` consumes a whole batch of tokens in one call frame,
inlining the no-repetition fast path; the repair paths
(``_match``/``_substitute``/``_expand``) transliterate the reference
algorithm exactly — same rule-creation order, same digram-index
insertion/deletion sequence — so the produced grammar, including the
``rules`` and ``_digrams`` dict insertion orders that downstream analysis
iterates, is bit-identical to the linked-object implementation retained in
:mod:`repro.oracle.refsequitur` as the differential reference.

**In-place lengthening.**  On repetitive traces most tokens extend a
repeat that is already a rule: the start rule ends in ``R``, used twice,
and the appended ``t`` repeats the digram ``(R, t)`` found after ``R``'s
other use.  The reference creates ``R' -> R t``, substitutes both sites
and inlines ``R`` again; :meth:`_lengthen` applies the net effect (``R'``
takes over ``R``'s slots, the other site's ``t`` moves to the end of the
body) and the same digram-index operations in O(1), and falls back to
``_match`` whenever the reference would do anything else.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from repro.errors import AnalysisError
from repro.sequitur.grammar import Rule

#: 32-bit mask for one half of a packed digram key.  Terminals are bounded
#: by :data:`MAX_TERMINAL` and rule ids by the trace length, so both digram
#: keys round-trip through ``key & _M`` injectively.
_M = 0xFFFFFFFF
#: Exclusive terminal bound (2^31).  Interned reference ids are dense and
#: never approach it; the explicit check turns a silent packing collision
#: into a typed error.
MAX_TERMINAL = 0x80000000


def _unpack(packed: int) -> tuple[int, int]:
    """Inverse of the ``((a & _M) << 32) | (b & _M)`` digram packing."""
    a = packed >> 32
    b = packed & _M
    if a >= MAX_TERMINAL:
        a -= _M + 1
    if b >= MAX_TERMINAL:
        b -= _M + 1
    return (a, b)


class Sequitur:
    """Online grammar inference over a stream of integer tokens."""

    def __init__(self) -> None:
        self._nxt: list[int] = []
        self._prv: list[int] = []
        self._key: list[Optional[int]] = []
        self._own: list[int] = []
        self._free: list[int] = []
        self._next_rule_id = 0
        #: digram packed-key -> leftmost slot of the indexed digram
        self._digrams: dict[int, int] = {}
        self.start = self._new_rule()
        #: live rules by id (includes the start rule)
        self.rules: dict[int, Rule] = {self.start.id: self.start}
        self.length = 0

    # ------------------------------------------------------------- plumbing

    def _alloc(self, key: Optional[int], owner: int) -> int:
        """Allocate a slot (recycling the free list); links start unset.

        ``owner`` is the rule id for a guard slot and the owning rule's
        guard slot for a body slot.
        """
        free = self._free
        if free:
            s = free.pop()
            self._key[s] = key
            self._own[s] = owner
            return s
        s = len(self._nxt)
        self._nxt.append(-1)
        self._prv.append(-1)
        self._key.append(key)
        self._own.append(owner)
        return s

    def _new_rule(self) -> Rule:
        rule_id = self._next_rule_id
        self._next_rule_id += 1
        g = self._alloc(None, rule_id)
        self._nxt[g] = g
        self._prv[g] = g
        return Rule(rule_id, g, self)

    def _index(self, s: int) -> None:
        """Record the digram starting at slot ``s`` in the index."""
        k = self._key[s]
        ns = self._nxt[s]
        if k is None or ns == -1:
            return
        nk = self._key[ns]
        if nk is None:
            return
        self._digrams[((k & _M) << 32) | (nk & _M)] = s

    def _unindex(self, s: int) -> None:
        """Remove the digram starting at ``s`` iff the index points at it."""
        k = self._key[s]
        ns = self._nxt[s]
        if k is None or ns == -1:
            return
        nk = self._key[ns]
        if nk is None:
            return
        packed = ((k & _M) << 32) | (nk & _M)
        if self._digrams.get(packed) == s:
            del self._digrams[packed]

    def _join(self, left: int, right: int) -> None:
        """Link ``left`` -> ``right``, maintaining the digram index.

        The ``_unindex``/``_index`` helpers are inlined here (hottest call
        site in the engine); the guard conditions collapse because the
        repair branches already establish every precondition.
        """
        nxt = self._nxt
        prv = self._prv
        key = self._key
        if nxt[left] != -1:
            digrams = self._digrams
            # Inline _unindex(left).
            lk = key[left]
            ln = nxt[left]
            if lk is not None and ln != -1:
                nk = key[ln]
                if nk is not None:
                    packed = ((lk & _M) << 32) | (nk & _M)
                    if digrams.get(packed) == left:
                        del digrams[packed]
            # Overlapping-triple repair (e.g. "aaa"): unindexing (left, old
            # next) may have removed an entry that a neighbouring equal-value
            # digram should now own.  ``_index`` inlines to a plain store:
            # the repair condition guarantees both digram halves are equal
            # non-guard keys.
            rp, rn = prv[right], nxt[right]
            if rp != -1 and rn != -1:
                rk = key[right]
                if rk is not None and key[rp] == rk and key[rn] == rk:
                    digrams[((rk & _M) << 32) | (rk & _M)] = right
            lp = prv[left]
            if lp != -1 and ln != -1 and lk is not None and key[lp] == lk and key[ln] == lk:
                digrams[((lk & _M) << 32) | (lk & _M)] = lp
        nxt[left] = right
        prv[right] = left

    def _insert_after(self, at: int, s: int) -> None:
        # Every call site passes a freshly allocated ``s`` (nxt[s] == -1),
        # so the first half of the splice — _join(s, nxt[at]) — skips the
        # digram block and reduces to a raw relink.
        nxt = self._nxt
        right = nxt[at]
        nxt[s] = right
        self._prv[right] = s
        self._join(at, s)

    def _delete(self, s: int) -> None:
        """Unlink slot ``s``, update index and refcounts, recycle the slot.

        Inlines ``_join(prv[s], nxt[s])`` followed by ``_unindex(s)``, in
        that order, with the guards specialised: ``s`` is always linked, so
        left's old next is ``s`` itself and the digram block always runs.
        """
        nxt = self._nxt
        prv = self._prv
        key = self._key
        digrams = self._digrams
        left = prv[s]
        right = nxt[s]
        k = key[s]
        # Inline _join(left, right): unindex (left, s) ...
        lk = key[left]
        if lk is not None and k is not None:
            packed = ((lk & _M) << 32) | (k & _M)
            if digrams.get(packed) == left:
                del digrams[packed]
        # ... then the overlapping-triple repairs (ln == s throughout).
        rp, rn = prv[right], nxt[right]
        if rp != -1 and rn != -1:
            rk = key[right]
            if rk is not None and key[rp] == rk and key[rn] == rk:
                digrams[((rk & _M) << 32) | (rk & _M)] = right
        lp = prv[left]
        if lp != -1 and lk is not None and key[lp] == lk and k == lk:
            digrams[((lk & _M) << 32) | (lk & _M)] = lp
        nxt[left] = right
        prv[right] = left
        if k is not None:
            # Inline _unindex(s): the relink above left s's own links
            # intact, so (key[s], key[nxt[s]]) is still the digram s headed
            # before the unlink.
            if right != -1:
                nk = key[right]
                if nk is not None:
                    packed = ((k & _M) << 32) | (nk & _M)
                    if digrams.get(packed) == s:
                        del digrams[packed]
            if k < 0:
                self.rules[-1 - k].refcount -= 1
        nxt[s] = -1
        prv[s] = -1
        self._free.append(s)

    # ------------------------------------------------------ the two invariants

    def _check(self, s: int) -> bool:
        """Enforce digram uniqueness for the digram starting at ``s``.

        Returns True when a repetition was found and processed (in which case
        the neighbourhood of ``s`` may have been rewritten).
        """
        k = self._key[s]
        ns = self._nxt[s]
        if k is None or ns == -1:
            return False
        nk = self._key[ns]
        if nk is None:
            return False
        packed = ((k & _M) << 32) | (nk & _M)
        match = self._digrams.get(packed)
        if match is None:
            self._digrams[packed] = s
            return False
        if self._nxt[match] == s:
            # Overlapping occurrence (e.g. the middle of "aaa"): do nothing.
            return True
        self._match(s, match)
        return True

    def _match(self, new: int, match: int) -> None:
        """Handle a repeated digram: reuse or create a rule."""
        nxt = self._nxt
        prv = self._prv
        key = self._key
        mp = prv[match]
        mnn = nxt[nxt[match]]
        if key[mp] is None and key[mnn] is None:
            # The matching digram is the entire body of an existing rule.
            rule = self.rules[self._own[mp]]
            self._substitute(new, rule)
        else:
            rule = self._new_rule()
            self.rules[rule.id] = rule
            k1 = key[new]
            k2 = key[nxt[new]]
            first = self._alloc(k1, rule.guard)
            if k1 is not None and k1 < 0:
                self.rules[-1 - k1].refcount += 1
            second = self._alloc(k2, rule.guard)
            if k2 is not None and k2 < 0:
                self.rules[-1 - k2].refcount += 1
            self._insert_after(rule.guard, first)
            self._insert_after(first, second)
            self._substitute(match, rule)
            self._substitute(new, rule)
            self._index(nxt[rule.guard])
        # Rule utility: substitution may have dropped some rule's use count
        # to one; the remaining use can only be inside the (re)used rule.
        g = rule.guard
        for candidate in (nxt[g], prv[g]):
            ck = key[candidate]
            if ck is not None and ck < 0 and self.rules[-1 - ck].refcount == 1:
                self._expand(candidate)
                break

    def _substitute(self, s: int, rule: Rule) -> None:
        """Replace the digram starting at ``s`` with non-terminal ``rule``."""
        nxt = self._nxt
        own = self._own
        prev = self._prv[s]
        owner = prev if self._key[prev] is None else own[prev]
        self._delete(nxt[prev])
        self._delete(nxt[prev])
        rule.refcount += 1
        ns = self._alloc(-1 - rule.id, owner)
        # Inline _insert_after(prev, ns): ns is fresh, raw relink first.
        right = nxt[prev]
        nxt[ns] = right
        self._prv[right] = ns
        self._join(prev, ns)
        if not self._check(prev):
            self._check(nxt[prev])

    def _expand(self, s: int) -> None:
        """Inline the under-used rule referenced by slot ``s``, delete it."""
        nxt = self._nxt
        prv = self._prv
        own = self._own
        rule = self.rules[-1 - self._key[s]]  # type: ignore[operator]
        target = own[s]  # the surrounding rule's guard slot
        left, right = prv[s], nxt[s]
        g = rule.guard
        first, last = nxt[g], prv[g]
        self._unindex(s)
        del self.rules[rule.id]
        # The spliced body symbols now belong to the surrounding rule.
        node = first
        while node != g:
            own[node] = target
            node = nxt[node]
        self._join(left, first)
        self._join(last, right)
        self._index(last)
        nxt[s] = -1
        prv[s] = -1
        self._free.append(s)
        nxt[g] = -1
        prv[g] = -1
        self._free.append(g)

    def _lengthen(self, last: int, m: int, t: int) -> bool:
        """Lengthen rule ``R`` by terminal ``t`` in place, if that is all
        the reference sequence would do; False (nothing touched) otherwise.

        ``last`` is the start rule's tail, an ``R`` slot; ``t`` is the
        terminal being appended (not yet linked) and ``m`` the indexed other
        occurrence of ``(R, t)``, site 1: ``p1 R t q1``.  When ``R`` is used
        exactly twice, ``_match`` creates ``R' -> R t``, substitutes both
        sites and ``_expand``s ``R`` back into ``R'``.  The net effect is
        applied here: ``R'`` takes over ``R``'s guard and body, site 1's
        ``t`` slot moves to the end of that body, and the two ``R`` slots
        become ``R'``.  The digram index sees the reference's operations in
        its order, less an add/delete pair of ``(R, t)`` that cancels out.
        """
        key = self._key
        lk = key[last]
        rules = self.rules
        old = rules[-1 - lk]  # type: ignore[operator]
        if old.refcount != 2:
            return False  # R survives: _match keeps R' -> R t as a new rule
        nxt = self._nxt
        prv = self._prv
        p1 = prv[m]
        t1 = nxt[m]  # never ``last``: keys R and t differ, so no overlap
        q1 = nxt[t1]
        p2 = prv[last]
        k1 = key[p1]
        kq = key[q1]
        k2 = key[p2]
        # Fall back where _match reuses a rule (site 1 is a whole body) and
        # wherever an overlapping-triple repair or a second digram match
        # could fire in the reference sequence.  The sites touch only when
        # q1 is ``last``, and then p2 is site 1's ``t`` slot; R neighbours
        # neither site, since it is used exactly twice.
        if (
            (k1 is None and kq is None)
            or t == k1 or t == kq or t == k2
            or (k1 is not None and (k1 == kq or k1 == k2))
        ):
            return False
        own = self._own
        digrams = self._digrams
        dget = digrams.get
        rid = self._next_rule_id
        self._next_rule_id = rid + 1
        lm = lk & _M  # type: ignore[operator]
        nm = (-1 - rid) & _M
        # _substitute(site 1): unindex (p1, R), (R, t), (t, q1); index
        # (p1, R'), (R', q1).
        if k1 is not None:
            d = ((k1 & _M) << 32) | lm
            if dget(d) == p1:
                del digrams[d]
        del digrams[(lm << 32) | t]
        if kq is not None:
            d = (t << 32) | (kq & _M)
            if dget(d) == t1:
                del digrams[d]
        if k1 is not None:
            digrams[((k1 & _M) << 32) | nm] = p1
        if kq is not None:
            digrams[(nm << 32) | (kq & _M)] = m
        # _substitute(site 2): unindex (p2, R); index (p2, R').
        if k2 is not None:
            d = ((k2 & _M) << 32) | lm
            if dget(d) == p2:
                del digrams[d]
            digrams[((k2 & _M) << 32) | nm] = p2
        # _expand(R): the plain store of (last(R), t).
        g = old.guard
        tail = prv[g]
        digrams[((key[tail] & _M) << 32) | t] = tail  # type: ignore[operator]
        key[m] = key[last] = -1 - rid
        nxt[m] = q1
        prv[q1] = m
        nxt[tail] = t1
        prv[t1] = tail
        nxt[t1] = g
        prv[g] = t1
        own[t1] = g
        own[g] = rid
        rule = Rule(rid, g, self)
        rule.refcount = 2
        rules[rid] = rule
        del rules[old.id]
        return True

    # --------------------------------------------------------------- public

    def append(self, token: int) -> None:
        """Append one terminal to the inferred string."""
        self.extend_batch((token,))

    def extend(self, tokens: Iterable[int]) -> None:
        """Append a sequence of terminals."""
        self.extend_batch(tokens)

    def extend_batch(self, tokens: Union[Sequence[int], Iterable[int]]) -> None:
        """Append a batch of terminals in one call frame.

        Equivalent to per-token :meth:`append` — the batch boundaries are
        not observable in the resulting grammar (pinned by the partition
        property tests and the oracle differential) — but the no-repetition
        fast path runs inline over locally-bound arrays, and a token that
        lengthens a repeat is one :meth:`_lengthen` step, which is what makes
        the profiling hot path cheap.  A negative (or over-bound) token
        raises :class:`AnalysisError` at the exact offending position, with
        every earlier token already applied.
        """
        if not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)
        if not tokens:
            return
        nxt = self._nxt
        prv = self._prv
        key = self._key
        own = self._own
        free = self._free
        digrams = self._digrams
        dget = digrams.get
        lengthen = self._lengthen
        start = self.start
        g = start.guard
        length = self.length
        try:
            for token in tokens:
                if token < 0:
                    raise AnalysisError(f"terminals must be non-negative, got {token}")
                if token >= MAX_TERMINAL:
                    raise AnalysisError(
                        f"terminal {token} exceeds the flat engine's bound {MAX_TERMINAL}"
                    )
                length += 1
                last = prv[g]
                m = None
                if last != g:
                    # Inline digram-uniqueness check for (last, token); it
                    # reads no link the append below writes.
                    lk = key[last]
                    packed = ((lk & _M) << 32) | token  # type: ignore[operator]
                    m = dget(packed)
                    if m is None:
                        digrams[packed] = last
                    elif lk < 0 and lengthen(last, m, token):  # type: ignore[operator]
                        continue
                if free:
                    s = free.pop()
                    key[s] = token
                    own[s] = g
                else:
                    s = len(nxt)
                    nxt.append(-1)
                    prv.append(-1)
                    key.append(token)
                    own.append(g)
                # Link at the end of the start rule.  As in the reference
                # implementation, appending at a rule's tail touches no
                # indexed digram (the old tail digram ends at the guard),
                # so the raw relink is exact.
                nxt[s] = g
                prv[g] = s
                nxt[last] = s
                prv[s] = last
                # An overlapping occurrence (nxt[m] == last) is skipped, as
                # _check does.
                if m is not None and nxt[m] != last:
                    self._match(last, m)
        finally:
            self.length = length

    def grammar_size(self) -> int:
        """Total number of symbols on all right-hand sides."""
        nxt = self._nxt
        total = 0
        for rule in self.rules.values():
            g = rule.guard
            s = nxt[g]
            while s != g:
                total += 1
                s = nxt[s]
        return total

    def expansion_lengths(self) -> dict[int, int]:
        """Expansion (terminal-string) length of every rule, by rule id.

        Iterative (explicit worklist): deep grammars from long traces must
        not depend on Python's recursion limit.
        """
        nxt = self._nxt
        key = self._key
        terms: dict[int, int] = {}
        kids: dict[int, list[int]] = {}
        for rule_id, rule in self.rules.items():
            g = rule.guard
            t = 0
            ks: list[int] = []
            s = nxt[g]
            while s != g:
                k = key[s]
                if k >= 0:  # type: ignore[operator]
                    t += 1
                else:
                    ks.append(-1 - k)  # type: ignore[operator]
                s = nxt[s]
            terms[rule_id] = t
            kids[rule_id] = ks
        lengths: dict[int, int] = {}
        for rule_id in self.rules:
            if rule_id in lengths:
                continue
            stack: list[tuple[int, bool]] = [(rule_id, False)]
            while stack:
                cur, ready = stack.pop()
                if cur in lengths:
                    continue
                if ready:
                    lengths[cur] = terms[cur] + sum(lengths[c] for c in kids[cur])
                    continue
                stack.append((cur, True))
                for child in kids[cur]:
                    if child not in lengths:
                        stack.append((child, False))
        return lengths

    def expand(self, rule: Optional[Rule] = None, limit: Optional[int] = None) -> list[int]:
        """Terminal expansion of ``rule`` (default: the whole string).

        ``limit`` truncates the expansion (useful when only a prefix of a
        candidate stream is needed).  Iterative: the continuation stack
        replaces the recursive walker.
        """
        if rule is None:
            rule = self.start
        nxt = self._nxt
        key = self._key
        rules = self.rules
        out: list[int] = []
        g = rule.guard
        stack: list[tuple[int, int]] = [(nxt[g], g)]
        while stack:
            s, term = stack.pop()
            while s != term:
                k = key[s]
                if k >= 0:  # type: ignore[operator]
                    out.append(k)  # type: ignore[arg-type]
                    if limit is not None and len(out) >= limit:
                        return out
                    s = nxt[s]
                else:
                    child_guard = rules[-1 - k].guard  # type: ignore[operator]
                    stack.append((nxt[s], term))
                    s = nxt[child_guard]
                    term = child_guard
        return out

    def children(self, rule: Rule) -> list[Rule]:
        """Rules appearing on ``rule``'s right-hand side (with repetition)."""
        nxt = self._nxt
        key = self._key
        rules = self.rules
        out: list[Rule] = []
        g = rule.guard
        s = nxt[g]
        while s != g:
            k = key[s]
            if k < 0:  # type: ignore[operator]
                out.append(rules[-1 - k])  # type: ignore[operator]
            s = nxt[s]
        return out

    # ---------------------------------------------------------- serialization

    def __getstate__(self) -> dict:
        """Flatten the grammar for pickling (checkpoints, process pools).

        The wire format is unchanged from the linked-object implementation —
        per-rule bodies as ``(terminal, rule_id)`` pairs plus the digram
        index as symbol positions, both dict insertion orders (``rules``,
        ``_digrams``) preserved exactly — so checkpoints stay kernel- and
        engine-representation-agnostic.
        """
        nxt = self._nxt
        key = self._key
        slot_position: dict[int, int] = {}
        bodies: list[tuple[int, int, list[tuple[Optional[int], Optional[int]]]]] = []
        position = 0
        for rule in self.rules.values():
            body: list[tuple[Optional[int], Optional[int]]] = []
            g = rule.guard
            s = nxt[g]
            while s != g:
                slot_position[s] = position
                position += 1
                k = key[s]
                body.append((k, None) if k >= 0 else (None, -1 - k))  # type: ignore[operator]
                s = nxt[s]
            bodies.append((rule.id, rule.refcount, body))
        return {
            "next_rule_id": self._next_rule_id,
            "start_id": self.start.id,
            "length": self.length,
            "rules": bodies,
            "digrams": [
                (_unpack(packed), slot_position[s]) for packed, s in self._digrams.items()
            ],
        }

    def __setstate__(self, state: dict) -> None:
        """Rebuild the flat arrays (inverse of __getstate__)."""
        self._nxt = []
        self._prv = []
        self._key = []
        self._own = []
        self._free = []
        self._next_rule_id = state["next_rule_id"]
        self.length = state["length"]
        rules: dict[int, Rule] = {}
        for rule_id, _, _ in state["rules"]:
            g = self._alloc(None, rule_id)
            self._nxt[g] = g
            self._prv[g] = g
            rules[rule_id] = Rule(rule_id, g, self)
        flat: list[int] = []
        nxt = self._nxt
        prv = self._prv
        for rule_id, refcount, body in state["rules"]:
            rule = rules[rule_id]
            rule.refcount = refcount
            g = rule.guard
            prev = g
            for terminal, ref_id in body:
                s = self._alloc(terminal if ref_id is None else -1 - ref_id, g)
                prv[s] = prev
                nxt[prev] = s
                prev = s
                flat.append(s)
            nxt[prev] = g
            prv[g] = prev
        self.rules = rules
        self.start = rules[state["start_id"]]
        self._digrams = {
            (((k1 & _M) << 32) | (k2 & _M)): flat[pos]
            for (k1, k2), pos in state["digrams"]
        }

    # ------------------------------------------------------------ inspection

    def to_text(self, terminal_names: Optional[dict[int, str]] = None) -> str:
        """Readable rendering, e.g. ``S -> A a B B`` (start rule is ``S``)."""

        def name(rule: Rule) -> str:
            return "S" if rule is self.start else f"R{rule.id}"

        def term(token: int) -> str:
            if terminal_names and token in terminal_names:
                return terminal_names[token]
            return str(token)

        lines = []
        for rule_id in sorted(self.rules):
            rule = self.rules[rule_id]
            rhs = " ".join(name(v) if isinstance(v, Rule) else term(v) for v in rule.rhs())
            lines.append(f"{name(rule)} -> {rhs}")
        return "\n".join(lines)

    def verify_invariants(self) -> None:
        """Assert grammar and flat-storage invariants.

        Beyond the algorithmic invariants (digram uniqueness, rule utility,
        refcount consistency) this re-derives the flat core's structural
        claims: doubly-linked consistency, slot accounting against the free
        list, ownership labels, and digram-index soundness/completeness.
        Intended for tests and the fuzz driver; raises
        :class:`AnalysisError` on violation.
        """
        nxt = self._nxt
        prv = self._prv
        key = self._key
        own = self._own
        total_slots = len(nxt)
        live: set[int] = set()
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        adjacent: set[int] = set()
        refcounts: dict[int, int] = {rule_id: 0 for rule_id in self.rules}
        for rule_id, rule in self.rules.items():
            g = rule.guard
            if key[g] is not None:
                raise AnalysisError(f"R{rule_id} guard slot {g} has a digram key")
            if own[g] != rule_id:
                raise AnalysisError(f"R{rule_id} guard slot {g} owned by R{own[g]}")
            live.add(g)
            position = 0
            s = nxt[g]
            steps = 0
            while s != g:
                steps += 1
                if steps > total_slots:
                    raise AnalysisError(f"R{rule_id} body does not terminate")
                if s in live:
                    raise AnalysisError(f"slot {s} appears in two bodies")
                live.add(s)
                if nxt[prv[s]] != s or prv[nxt[s]] != s:
                    raise AnalysisError(f"R{rule_id} slot {s} has inconsistent links")
                if own[s] != g:
                    raise AnalysisError(
                        f"R{rule_id} slot {s} carries owner slot {own[s]}, not its guard {g}"
                    )
                k = key[s]
                if k is None:
                    raise AnalysisError(f"R{rule_id} body contains guard slot {s}")
                if k < 0:
                    child_id = -1 - k
                    if child_id not in self.rules:
                        raise AnalysisError(f"R{rule_id} references dead rule R{child_id}")
                    refcounts[child_id] += 1
                ns = nxt[s]
                nk = key[ns]
                if nk is not None:
                    digram = (k, nk)
                    adjacent.add(((k & _M) << 32) | (nk & _M))
                    prior = seen.get(digram)
                    if prior is not None and prior != (rule_id, position - 1):
                        raise AnalysisError(
                            f"digram {digram} occurs twice: {prior} and R{rule_id}"
                        )
                    seen[digram] = (rule_id, position)
                position += 1
                s = ns
        free = set(self._free)
        if len(free) != len(self._free):
            raise AnalysisError("free list contains duplicate slots")
        if free & live:
            raise AnalysisError(f"slots both live and free: {sorted(free & live)[:8]}")
        leaked = set(range(total_slots)) - live - free
        if leaked:
            raise AnalysisError(f"leaked slots (neither live nor free): {sorted(leaked)[:8]}")
        for packed, s in self._digrams.items():
            if s not in live:
                raise AnalysisError(f"digram index entry {_unpack(packed)} -> freed slot {s}")
            k = key[s]
            ns = nxt[s]
            nk = key[ns]
            if k is None or nk is None:
                raise AnalysisError(
                    f"digram index entry {_unpack(packed)} -> guard-adjacent slot {s}"
                )
            if ((k & _M) << 32) | (nk & _M) != packed:
                raise AnalysisError(
                    f"digram index entry {_unpack(packed)} points at digram ({k}, {nk})"
                )
        missing = adjacent - set(self._digrams)
        if missing:
            raise AnalysisError(
                f"digrams present in bodies but absent from the index: "
                f"{[_unpack(p) for p in sorted(missing)][:8]}"
            )
        for rule_id, count in refcounts.items():
            rule = self.rules[rule_id]
            if rule is self.start:
                continue
            if count < 2:
                raise AnalysisError(f"rule utility violated: R{rule_id} used {count} times")
            if count != rule.refcount:
                raise AnalysisError(
                    f"refcount drift on R{rule_id}: stored {rule.refcount}, actual {count}"
                )
