"""Tracer core: nesting, span ids, exception safety, thread safety."""

import threading

import pytest

from repro.obs.tracer import NULL_SPAN, Tracer


class TestSpans:
    def test_span_records_duration(self):
        t = Tracer(enabled=True)
        with t.span("work"):
            pass
        (ev,) = t.events
        assert ev.name == "work"
        assert ev.is_span
        assert ev.dur_us >= 0.0

    def test_nesting_depth_and_parent(self):
        t = Tracer(enabled=True)
        with t.span("outer"):
            with t.span("inner"):
                with t.span("leaf"):
                    pass
        by_name = {ev.name: ev for ev in t.events}
        assert by_name["outer"].depth == 0 and by_name["outer"].parent is None
        assert by_name["inner"].depth == 1 and by_name["inner"].parent == by_name["outer"].id
        assert by_name["leaf"].depth == 2 and by_name["leaf"].parent == by_name["inner"].id

    def test_ids_are_unique_and_survive_clear(self):
        """A span open across clear() keeps an id no later event takes."""
        t = Tracer(enabled=True)
        with t.span("open"):
            t.clear()
            for _ in range(3):
                with t.span("child"):
                    t.event("mark")
        ids = [ev.id for ev in t.events]
        assert len(set(ids)) == len(ids) == 7
        (open_span,) = [ev for ev in t.events if ev.name == "open"]
        assert {ev.parent for ev in t.events if ev.name == "child"} == {open_span.id}

    def test_completion_order_inner_first(self):
        t = Tracer(enabled=True)
        with t.span("outer"):
            with t.span("inner"):
                pass
        assert [ev.name for ev in t.events] == ["inner", "outer"]

    def test_sibling_spans_share_parent(self):
        t = Tracer(enabled=True)
        with t.span("parent"):
            with t.span("a"):
                pass
            with t.span("b"):
                pass
        by_name = {ev.name: ev for ev in t.events}
        assert by_name["a"].parent == by_name["b"].parent == by_name["parent"].id
        assert by_name["a"].depth == by_name["b"].depth == 1

    def test_span_timestamps_are_ordered(self):
        t = Tracer(enabled=True)
        with t.span("first"):
            pass
        with t.span("second"):
            pass
        first, second = t.events
        assert second.ts_us >= first.ts_us + first.dur_us

    def test_attrs_and_set(self):
        t = Tracer(enabled=True)
        with t.span("s", bytes=128) as sp:
            sp.set(rewrites=3)
        (ev,) = t.events
        assert ev.attrs == {"bytes": 128, "rewrites": 3}

    def test_category_recorded(self):
        t = Tracer(enabled=True)
        with t.span("s", category="compiler"):
            pass
        assert t.events[0].category == "compiler"

    def test_exception_closes_span(self):
        t = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with t.span("risky"):
                raise ValueError("boom")
        (ev,) = t.events
        assert ev.name == "risky"
        assert ev.attrs["error"] == "ValueError"
        # the stack unwound: the next span is a root again
        with t.span("after"):
            pass
        assert t.events[-1].depth == 0

    def test_instant_event(self):
        t = Tracer(enabled=True)
        with t.span("ctx"):
            t.event("marker", layer="conv1", cycles=42)
        instants = [ev for ev in t.events if not ev.is_span]
        (ev,) = instants
        (ctx,) = [e for e in t.events if e.is_span]
        assert ev.dur_us is None
        assert ev.parent == ctx.id != ev.id and ev.depth == 1
        assert ev.attrs == {"layer": "conv1", "cycles": 42}


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        t = Tracer(enabled=False)
        assert t.span("x") is NULL_SPAN
        with t.span("x") as sp:
            sp.set(anything=1)
        assert t.events == []

    def test_disabled_event_noop(self):
        t = Tracer(enabled=False)
        t.event("e")
        assert t.events == []

    def test_enable_disable_roundtrip(self):
        t = Tracer(enabled=False)
        t.enable()
        with t.span("on"):
            pass
        t.disable()
        with t.span("off"):
            pass
        assert [ev.name for ev in t.events] == ["on"]

    def test_clear_resets_everything(self):
        t = Tracer(enabled=True)
        with t.span("s"):
            t.event("e")
        t.clear()
        assert t.events == []


class TestThreadSafety:
    def test_concurrent_nested_spans(self):
        t = Tracer(enabled=True)
        n_threads, n_iters = 8, 25
        errors = []

        def work(tid):
            try:
                for i in range(n_iters):
                    with t.span(f"outer-{tid}"):
                        with t.span(f"inner-{tid}"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        assert not errors
        events = t.events
        assert len(events) == n_threads * n_iters * 2
        by_id = {ev.id: ev for ev in events}
        assert len(by_id) == len(events)  # ids are unique across threads
        # nesting is tracked per thread: every inner span has depth 1
        # and its own thread's outer as parent
        for ev in events:
            if ev.name.startswith("inner-"):
                tid = ev.name.split("-")[1]
                assert ev.depth == 1
                assert by_id[ev.parent].name == f"outer-{tid}"
                assert by_id[ev.parent].tid == ev.tid
            else:
                assert ev.depth == 0 and ev.parent is None
