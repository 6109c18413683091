"""Tests for the trace recorder (repro.sim.trace)."""

from __future__ import annotations

from repro.sim.trace import Trace, TraceKind


def _sample_trace() -> Trace:
    trace = Trace()
    trace.record(0.0, TraceKind.APP_ARRIVED, app_id=1)
    trace.record(0.0, TraceKind.TASK_CONFIG_START, app_id=1, task_id="t0", slot=0)
    trace.record(80.0, TraceKind.TASK_CONFIG_DONE, app_id=1, task_id="t0", slot=0)
    trace.record(80.0, TraceKind.ITEM_START, app_id=1, task_id="t0", slot=0,
                 detail=0.0)
    trace.record(180.0, TraceKind.ITEM_DONE, app_id=1, task_id="t0", slot=0,
                 detail=0.0)
    trace.record(180.0, TraceKind.APP_RETIRED, app_id=1)
    trace.record(200.0, TraceKind.APP_ARRIVED, app_id=2)
    return trace


class TestBasics:
    def test_len_and_iteration(self):
        trace = _sample_trace()
        assert len(trace) == 7
        assert len(list(trace)) == 7

    def test_of_kind_filters(self):
        trace = _sample_trace()
        arrivals = trace.of_kind(TraceKind.APP_ARRIVED)
        assert [e.app_id for e in arrivals] == [1, 2]

    def test_for_app_filters(self):
        trace = _sample_trace()
        assert all(e.app_id == 2 for e in trace.for_app(2))
        assert len(trace.for_app(1)) == 6

    def test_first_finds_earliest(self):
        trace = _sample_trace()
        first = trace.first(TraceKind.APP_ARRIVED)
        assert first is not None and first.app_id == 1
        second = trace.first(TraceKind.APP_ARRIVED, app_id=2)
        assert second is not None and second.time == 200.0

    def test_first_returns_none_when_absent(self):
        assert _sample_trace().first(TraceKind.TASK_PREEMPTED) is None

    def test_str_contains_fields(self):
        event = _sample_trace().events[1]
        text = str(event)
        assert "task_config_start" in text
        assert "app=1" in text
        assert "slot=0" in text


class TestAggregates:
    def test_reconfig_busy_sums_intervals(self):
        assert _sample_trace().reconfig_busy_ms() == 80.0

    def test_run_busy_sums_item_durations(self):
        assert _sample_trace().run_busy_ms() == 100.0

    def test_unmatched_starts_ignored(self):
        trace = Trace()
        trace.record(0.0, TraceKind.ITEM_START, app_id=1, task_id="t",
                     slot=0, detail=0.0)
        assert trace.run_busy_ms() == 0.0
