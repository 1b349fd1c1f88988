"""Host-time accounting by wrapping a layer's entry points from outside.

A :class:`Probe` replaces chosen attributes (module functions and class
methods) with timing wrappers and keeps, per layer, the *self* time: the
time spent in that layer's calls minus the time spent in wrapped calls they
made.  Each wrapper costs a little time of its own, which lands mostly in
the caller; :meth:`Probe.calibrate` measures that cost on a no-op function
so :meth:`Probe.corrected_self_ns` can take it out again; the caller reports
it separately.

Calls at least ``min_span_ns`` long are also kept as spans (layer, name,
start, end) for a Chrome trace file.  Nothing is written while the program runs.
"""

from __future__ import annotations

import time
from collections import defaultdict

CLOCK = time.perf_counter_ns


class Probe:
    """Self-time accounting over wrapped entry points."""

    def __init__(self, min_span_ns: int = 1_000_000) -> None:
        self.min_span_ns = min_span_ns
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: wrapped calls made directly from inside this layer's calls
        self.kids: dict[str, int] = defaultdict(int)
        #: inclusive time in setup layers (see :meth:`wrap`)
        self.setup_ns = 0
        #: ``(layer, name, start_ns, end_ns)`` of calls at least ``min_span_ns`` long
        self.spans: list[tuple[str, str, int, int]] = []
        #: one ``[child_ns, child_calls]`` frame per open wrapped call
        self._stack: list[list[int]] = [[0, 0]]
        self._installed: list[tuple[object, str, object]] = []
        self.cost_parent_ns = 0.0
        self.cost_self_ns = 0.0

    def reset(self) -> None:
        """Forget everything counted so far (installed wrappers stay)."""
        self.self_ns.clear()
        self.calls.clear()
        self.kids.clear()
        self.setup_ns = 0
        self.spans.clear()

    # ------------------------------------------------------------- wrapping

    def wrapper(self, fn, layer: str, setup: bool = False):
        """A timing wrapper around ``fn`` that charges ``layer``.

        ``setup`` marks work that prepares a run rather than running it
        (building a workload, instrumenting it): its inclusive time is also
        added to :attr:`setup_ns`, so a caller can take it out of a wall time.
        """
        stack = self._stack
        self_ns, calls, kids = self.self_ns, self.calls, self.kids
        spans = self.spans
        min_span = self.min_span_ns
        clock = CLOCK
        probe = self
        name = getattr(fn, "__qualname__", layer)

        def timed(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[layer] += dur - frame[0]
                calls[layer] += 1
                kids[layer] += frame[1]
                parent = stack[-1]
                parent[0] += dur
                parent[1] += 1
                if setup:
                    probe.setup_ns += dur
                if dur >= min_span:
                    spans.append((layer, name, t0, t1))

        timed.__wrapped__ = fn
        return timed

    def wrap(self, owner, attr: str, layer: str, setup: bool = False) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute).

        Class attributes are read from the class ``__dict__`` so the original
        descriptor is what :meth:`unwrap` puts back.
        """
        original = _current(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(original, layer, setup))

    def installed(self) -> int:
        """How many attributes are wrapped right now."""
        return len(self._installed)

    def unwrap(self, keep: int = 0) -> list[str]:
        """Restore every attribute wrapped after the first ``keep``.

        Returns the names of restored attributes that still do not hold their
        original object (empty when the restore worked).
        """
        restored = []
        while len(self._installed) > keep:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in restored
            if _current(owner, attr) is not original
        ]

    # ---------------------------------------------------------------- spans

    def span(self, layer: str, name: str) -> "_Span":
        """Context manager timing one top-level unit (a cell) as a span."""
        return _Span(self, layer, name)

    # ---------------------------------------------------------- calibration

    def calibrate(self, n: int = 200_000) -> None:
        """Measure what one wrapped call adds, on a no-op method.

        The no-op is called the way the hottest wrapped entry points are (a
        method looked up on its class, two positional arguments).
        ``cost_self_ns`` is the part the wrapped layer's own self time picks
        up (the clock read inside its window); ``cost_parent_ns`` is the rest,
        which lands in the caller's self time.
        """
        class Target:
            def call(self, a, b):
                return None

        def loop(target) -> int:
            t0 = CLOCK()
            for i in range(n):
                target.call(i, 0)
            return CLOCK() - t0

        scratch = Probe(min_span_ns=1 << 62)
        target = Target()
        best = None
        for _ in range(5):
            bare = loop(target)
            scratch.wrap(Target, "call", "noop")
            scratch.reset()
            total = loop(target)
            inner = scratch.self_ns["noop"]
            scratch.unwrap()
            if best is None or total - bare < best[1] - best[0]:
                best = (bare, total, inner)
        bare, total, inner = best
        per_call = max(0.0, (total - bare) / n)
        self.cost_self_ns = min(per_call, max(0.0, (inner - bare) / n))
        self.cost_parent_ns = per_call - self.cost_self_ns

    @property
    def cost_ns(self) -> float:
        return self.cost_parent_ns + self.cost_self_ns

    def corrected_self_ns(self, layer: str) -> float:
        """Self time with the wrappers' own cost taken out."""
        return (
            self.self_ns.get(layer, 0)
            - self.kids.get(layer, 0) * self.cost_parent_ns
            - self.calls.get(layer, 0) * self.cost_self_ns
        )


def _current(owner, attr: str):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class _Span:
    """A top-level frame: wrapped calls inside it are its children."""

    def __init__(self, probe: Probe, layer: str, name: str) -> None:
        self.probe = probe
        self.layer = layer
        self.name = name
        self.total_ns = 0
        self.setup_ns = 0

    def __enter__(self) -> "_Span":
        self._setup0 = self.probe.setup_ns
        self._frame = [0, 0]
        self.probe._stack.append(self._frame)
        self._t0 = CLOCK()
        return self

    def __exit__(self, *exc) -> None:
        t1 = CLOCK()
        probe = self.probe
        probe._stack.pop()
        self.total_ns = t1 - self._t0
        self.setup_ns = probe.setup_ns - self._setup0
        probe.spans.append((self.layer, self.name, self._t0, t1))

    @property
    def wall_ns(self) -> int:
        """Time inside the span that was not set-up work."""
        return self.total_ns - self.setup_ns
