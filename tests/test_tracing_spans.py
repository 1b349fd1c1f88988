"""Tests for repro.tracing.spans: the tracer and the null tracer.

Covers the zero-overhead disabled path, auto-parenting, close-out ordering,
and the span tree a real traced run records, rebuilt from its
``SpanBegin``/``SpanEnd``/``Burst*`` events.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import run_level
from repro.telemetry.events import EventBus, SpanBegin, SpanEnd
from repro.telemetry.session import TelemetrySession
from repro.telemetry.sinks import ListSink
from repro.tracing.spans import NULL_TRACER, SPAN_CATEGORIES, SpanTracer


def _traced_bus():
    bus = EventBus()
    sink = ListSink()
    bus.attach(sink)
    return bus, sink


def span_tree(events):
    """Rebuild the span tree from a run's recorded events.

    Each span is a dict (``category``, ``name``, ``begin``, ``end``,
    ``children``).  Bursts become ``burst`` spans under the innermost open
    epoch; ``RunEnd`` closes a burst left open.  Returns the roots: spans
    whose parent was never seen.
    """
    by_id, open_ids, spans = {}, [], []
    burst = None

    def add(sid, parent_id, category, name, begin):
        span = {"category": category, "name": name, "begin": begin, "end": None,
                "parent": parent_id, "children": []}
        spans.append(span)
        by_id[sid] = span
        if parent_id in by_id:
            by_id[parent_id]["children"].append(span)
        return span

    for event in events:
        if event.kind == "SpanBegin":
            add(event.span_id, event.parent_id, event.category, event.name, event.cycle)
            open_ids.append(event.span_id)
        elif event.kind == "SpanEnd":
            by_id[event.span_id]["end"] = event.cycle
            open_ids.remove(event.span_id)
        elif event.kind == "BurstBegin":
            epochs = [sid for sid in open_ids if by_id[sid]["category"] == "epoch"]
            burst = add(-len(spans) - 1, epochs[-1] if epochs else 0, "burst", "burst",
                        event.cycle)
        elif event.kind in ("BurstEnd", "RunEnd") and burst is not None:
            burst["end"] = event.cycle
            burst = None
    return [span for span in spans if span["parent"] not in by_id]


class TestSpanTracer:
    def test_disabled_bus_returns_zero_ids(self):
        tracer = SpanTracer(EventBus())  # no sinks -> disabled
        assert not tracer.enabled
        assert tracer.begin(0, "run", "run") == 0
        tracer.end(10, 0)  # must be a no-op, not an error

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.begin(5, "x", "run") == 0
        NULL_TRACER.end(9, 0)
        NULL_TRACER.close_all(9)

    def test_ids_are_unique_and_nonzero(self):
        bus, _ = _traced_bus()
        tracer = SpanTracer(bus)
        ids = [tracer.begin(i, f"s{i}", "epoch") for i in range(5)]
        assert 0 not in ids
        assert len(set(ids)) == 5

    def test_auto_parenting_uses_innermost_open_span(self):
        bus, sink = _traced_bus()
        tracer = SpanTracer(bus)
        outer = tracer.begin(0, "run", "run")
        inner = tracer.begin(10, "epoch-1", "epoch")
        leaf = tracer.begin(20, "analysis", "analysis")
        begins = {e.span_id: e for e in sink.events if isinstance(e, SpanBegin)}
        assert begins[outer].parent_id == 0
        assert begins[inner].parent_id == outer
        assert begins[leaf].parent_id == inner

    def test_explicit_parent_wins_over_stack(self):
        bus, sink = _traced_bus()
        tracer = SpanTracer(bus)
        outer = tracer.begin(0, "run", "run")
        tracer.begin(5, "epoch", "epoch")
        pinned = tracer.begin(7, "aside", "analysis", parent=outer)
        begins = {e.span_id: e for e in sink.events if isinstance(e, SpanBegin)}
        assert begins[pinned].parent_id == outer

    def test_end_removes_from_open_stack(self):
        bus, sink = _traced_bus()
        tracer = SpanTracer(bus)
        outer = tracer.begin(0, "run", "run")
        inner = tracer.begin(5, "epoch", "epoch")
        tracer.end(9, inner)
        sibling = tracer.begin(10, "epoch-2", "epoch")
        begins = {e.span_id: e for e in sink.events if isinstance(e, SpanBegin)}
        assert begins[sibling].parent_id == outer

    def test_close_all_closes_innermost_first(self):
        bus, sink = _traced_bus()
        tracer = SpanTracer(bus)
        a = tracer.begin(0, "a", "run")
        b = tracer.begin(1, "b", "epoch")
        c = tracer.begin(2, "c", "analysis")
        tracer.close_all(50)
        ends = [e.span_id for e in sink.events if isinstance(e, SpanEnd)]
        assert ends == [c, b, a]
        assert all(e.cycle == 50 for e in sink.events if isinstance(e, SpanEnd))


class TestTracedRun:
    def test_real_run_produces_well_formed_tree(self):
        session = TelemetrySession.recording(tracing=True)
        result = run_level("vortex", "dyn", passes=2, telemetry=session)
        roots = span_tree(session.events)
        assert len(roots) == 1
        root = roots[0]
        assert root["category"] == "run"
        assert root["name"] == "vortex/dyn"
        assert root["begin"] == 0 and root["end"] == result.cycles
        categories = set()

        def walk(span):
            categories.add(span["category"])
            assert span["category"] in SPAN_CATEGORIES
            assert span["end"] is not None, "close_all must close every span"
            assert span["begin"] <= span["end"]
            for child in span["children"]:
                assert span["begin"] <= child["begin"]
                assert child["end"] is not None and child["end"] <= span["end"]
                walk(child)

        walk(root)
        # A dyn run must show epochs, profiling bursts and analyses.
        assert {"run", "epoch", "burst", "analysis"} <= categories

    def test_tracing_off_emits_no_span_events(self):
        sink = ListSink()
        session = TelemetrySession(sinks=[sink])
        run_level("vortex", "dyn", passes=2, telemetry=session)
        kinds = {e.kind for e in sink.events}
        assert "SpanBegin" not in kinds and "SpanEnd" not in kinds
        assert not session.tracer.enabled

    def test_injection_spans_present_when_optimizing(self):
        session = TelemetrySession.recording(tracing=True)
        run_level("vortex", "dyn", passes=2, telemetry=session)

        found = []

        def walk(span):
            if span["category"] == "injection":
                found.append(span)
            for child in span["children"]:
                walk(child)

        for root in span_tree(session.events):
            walk(root)
        assert found, "dyn run with injection should record injection spans"
        assert all(s["end"] == s["begin"] for s in found), "injection spans are instants"


@pytest.mark.parametrize("category", SPAN_CATEGORIES)
def test_categories_are_known_strings(category):
    assert isinstance(category, str) and category
