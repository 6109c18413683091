"""Every interval view of a run reads the same pairing.

``repro.sim.fold.TraceFold`` is the only code that pairs opening and
closing trace edges. The span view (``build_spans``), the reliability
metrics (``recovery_times_ms`` / MTTR), the trace's busy-time totals and
the observe snapshot all read it, so they cannot disagree. This suite
pins that:

* sha256 pins of the span list and the recovery list for two chaos runs
  in which no slot faults twice before its repair;
* the repeat-fault rule: an outage opens at a slot's first
  ``SLOT_FAULT`` and closes at its next ``SLOT_REPAIRED``;
* cross-view agreement on runs with and without repeat faults.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.metrics.reliability import recovery_times_ms
from repro.observe.aggregate import observed_run
from repro.observe.exporters import save_chrome_trace
from repro.observe.instrument import snapshot_run
from repro.observe.spans import (
    CATEGORY_COMPUTE,
    CATEGORY_DPR,
    CATEGORY_FAULT,
    CATEGORY_WAIT,
    build_spans,
    expected_span_count,
)
from repro.sim.trace import Trace, TraceKind
from repro.workload.scenarios import STRESS, chaos_scenario, scenario_sequence

#: nimblock runs: (chaos scenario, fault rate, seed, STRESS events,
#: fault seed).
RUNS = {
    # The tests/test_observe.py chaos fixture.
    "fixture": ("mixed", 0.05, 1, 12, 1),
    # `nimblock-repro trace --fault-rate 0.05 --seed 1 --events 8`.
    "ci-trace": ("mixed", 0.05, 1, 8, 1),
    # The tests/test_mode_equivalence.py full-rate chaos run.
    "full-rate": ("mixed", 1.0, 5, 12, 11),
    "transient": ("transient", 0.2, 2, 8, 2),
}

#: Span count, then sha256 of ``repr(build_spans(t))`` and of
#: ``repr(recovery_times_ms(t))``, for runs without repeat faults.
SPAN_PINS = {
    "fixture": (
        3153,
        "fc6fa6302a49427bee58511fad23fdf6fc3aafd8136592150b80c41843c5c3fa",
        "205b647d8f5551acd902b3eacccc6060d5d6e53ff2a4d7bd7f9727d1f1f7754b",
    ),
    "ci-trace": (
        2834,
        "7dcc43823b321a896418a3f780f88031f651ba8da517e1c5321bcd534c550dcc",
        "188a6137ebeae4b2d1f3d3f4daf295155eb85ba4aa211f1311fdfad15a23cdc1",
    ),
}


@functools.lru_cache(maxsize=None)
def _run(name):
    scenario, rate, seed, events, fault_seed = RUNS[name]
    sequence = scenario_sequence(STRESS, seed, events)
    faults = chaos_scenario(scenario).fault_config(rate, seed=fault_seed)
    hypervisor, _ = observed_run("nimblock", sequence, faults)
    return hypervisor


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _repeat_faults(trace) -> int:
    """SLOT_FAULT rows that land on a slot already out of service."""
    down, repeats = set(), 0
    for event in trace:
        if event.kind is TraceKind.SLOT_FAULT:
            repeats += event.slot in down
            down.add(event.slot)
        elif event.kind is TraceKind.SLOT_REPAIRED:
            down.discard(event.slot)
    return repeats


def _span_recoveries(spans):
    """Recovery intervals read off the span view, sorted.

    Every repaired outage, plus each failed reconfiguration up to the
    task's next successful one (measured between the two DPR spans'
    ends, from the first failure of a run of retries). A DPR span closed
    by ``CONFIG_FAILED`` carries the wasted time in ``detail``; one
    closed at the horizon carries none.
    """
    durations = [s.duration_ms for s in spans
                 if s.category == CATEGORY_FAULT and s.ok]
    failed_at = {}
    dpr = sorted((s for s in spans if s.category == CATEGORY_DPR),
                 key=lambda s: s.end_ms)
    for span in dpr:
        key = (span.app_id, span.task_id)
        if span.ok:
            if key in failed_at:
                durations.append(span.end_ms - failed_at.pop(key))
        elif span.detail is not None:
            failed_at.setdefault(key, span.end_ms)
    return sorted(durations)


class TestSpanPins:
    @pytest.mark.parametrize("run", sorted(SPAN_PINS))
    def test_spans_and_recoveries_pinned(self, run):
        trace = _run(run).trace
        assert _repeat_faults(trace) == 0
        count, spans_pin, recoveries_pin = SPAN_PINS[run]
        spans = build_spans(trace)
        assert len(spans) == count
        assert _sha256(spans) == spans_pin
        assert _sha256(recovery_times_ms(trace)) == recoveries_pin

    def test_fixture_run_covers_every_category(self):
        spans = build_spans(_run("fixture").trace)
        assert {s.category for s in spans} == {
            CATEGORY_DPR, CATEGORY_COMPUTE, CATEGORY_WAIT, CATEGORY_FAULT,
        }
        assert sum(not s.ok for s in spans) == 17


class TestRepeatFault:
    @staticmethod
    def _trace() -> Trace:
        trace = Trace()
        trace.record(100.0, TraceKind.SLOT_FAULT, slot=3, detail=0.0)
        trace.record(150.0, TraceKind.SLOT_FAULT, slot=3, detail=0.0)
        trace.record(260.0, TraceKind.SLOT_REPAIRED, slot=3)
        return trace

    def test_outage_opens_at_first_fault(self):
        trace = self._trace()
        spans = build_spans(trace)
        assert [(s.category, s.start_ms, s.end_ms, s.slot, s.ok)
                for s in spans] == [(CATEGORY_FAULT, 100.0, 260.0, 3, True)]
        assert expected_span_count(trace) == 1
        assert recovery_times_ms(trace) == [160.0]

    def test_chrome_export_of_repeat_fault_run(self, tmp_path):
        """The full-rate drill has repeat faults and still exports."""
        hypervisor = _run("full-rate")
        assert _repeat_faults(hypervisor.trace) > 0
        path = save_chrome_trace(hypervisor.trace, tmp_path / "trace.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["otherData"]["spans"] == expected_span_count(
            hypervisor.trace
        )


@pytest.mark.parametrize("run", sorted(RUNS))
class TestCrossViewAgreement:
    def test_span_count_identity(self, run):
        trace = _run(run).trace
        assert len(build_spans(trace)) == expected_span_count(trace)

    def test_spans_agree_with_recoveries(self, run):
        trace = _run(run).trace
        assert _span_recoveries(build_spans(trace)) == sorted(
            recovery_times_ms(trace)
        )

    def test_spans_agree_with_busy_totals(self, run):
        """``Trace`` busy time counts the DONE-closed spans only."""
        trace = _run(run).trace
        spans = build_spans(trace)
        for category, busy in (
            (CATEGORY_DPR, trace.reconfig_busy_ms()),
            (CATEGORY_COMPUTE, trace.run_busy_ms()),
        ):
            done = sum(s.duration_ms for s in spans
                       if s.category == category and s.ok)
            assert done == pytest.approx(busy)

    def test_spans_agree_with_snapshot(self, run):
        hypervisor = _run(run)
        snapshot = snapshot_run(hypervisor)
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        spans = build_spans(hypervisor.trace)
        for category, counter in (
            (CATEGORY_DPR, "nimblock_dpr_busy_ms_total"),
            (CATEGORY_COMPUTE, "nimblock_compute_busy_ms_total"),
        ):
            busy = sum(s.duration_ms for s in spans if s.category == category)
            assert busy == pytest.approx(counters[counter]["value"])
        recoveries = recovery_times_ms(hypervisor.trace)
        assert recoveries
        assert sum(recoveries) / len(recoveries) == pytest.approx(
            gauges["nimblock_mttr_ms"]["value"]
        )
