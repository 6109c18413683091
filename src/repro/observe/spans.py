"""Span builder: the trace's intervals as timed, categorized spans.

The hypervisor emits point events; everything the evaluation *reads* off a
run, however, is an interval — how long a partial reconfiguration held the
configuration port, how long a batch item occupied a slot, how long a
preempted task waited before it was resumed, how long a slot was out of
service after a fault. :func:`build_spans` reads those intervals off the
one pairing in :mod:`repro.sim.fold` and gives each its category:

===================  ==========================================  ===========
span ``name``        opened by / closed by                        category
===================  ==========================================  ===========
``dpr``              TASK_CONFIG_START → TASK_CONFIG_DONE         ``dpr``
``dpr`` (failed)     TASK_CONFIG_START → CONFIG_FAILED            ``dpr``
``item``             ITEM_START → ITEM_DONE (or SLOT_FAULT)       ``compute``
``preempted``        TASK_PREEMPTED → TASK_RESUMED                ``wait``
``evicted``          SLOT_FAULT (occupied) → TASK_RESUMED         ``wait``
``slot-fault``       first SLOT_FAULT → SLOT_REPAIRED             ``fault``
===================  ==========================================  ===========

Because every reconfiguration serializes through the single configuration
access port (CAP), the ``dpr`` spans never overlap — rendering them on one
timeline row (see :mod:`repro.observe.exporters`) makes the port contention
the paper discusses directly visible.

Spans still open when the trace ends (a dead slot, a task never resumed)
are closed at the trace horizon with ``ok=False`` so nothing is silently
dropped; :func:`expected_span_count` states the exact span count implied
by a trace's event kinds, which the exporters and tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.fold import (
    DPR,
    EVICTED,
    ITEM,
    OUTAGE,
    PREEMPTED,
    trace_intervals,
)
from repro.sim.trace import Trace, TraceKind

#: Category labels used by the span builder (stable exporter vocabulary).
CATEGORY_DPR = "dpr"
CATEGORY_COMPUTE = "compute"
CATEGORY_WAIT = "wait"
CATEGORY_FAULT = "fault"

#: Span category per fold interval kind; DPR retries are not spans.
_CATEGORIES = {
    DPR: CATEGORY_DPR,
    ITEM: CATEGORY_COMPUTE,
    PREEMPTED: CATEGORY_WAIT,
    EVICTED: CATEGORY_WAIT,
    OUTAGE: CATEGORY_FAULT,
}


@dataclass(frozen=True)
class Span:
    """One reconstructed interval of board or application activity."""

    name: str
    category: str
    start_ms: float
    end_ms: float
    slot: Optional[int] = None
    app_id: Optional[int] = None
    task_id: Optional[str] = None
    #: False when the interval ended abnormally (failed reconfiguration,
    #: item killed by a slot fault, never-repaired slot, never-resumed
    #: task) or was still open at the trace horizon.
    ok: bool = True
    #: Carried payload of the opening event (batch-item index for items,
    #: items completed at preemption for waits, work lost for faults);
    #: a failed reconfiguration carries its wasted port time.
    detail: Optional[float] = None

    def __post_init__(self) -> None:
        if self.end_ms < self.start_ms:
            raise ValueError(
                f"span {self.name!r} ends at {self.end_ms} before it "
                f"starts at {self.start_ms}"
            )

    @property
    def duration_ms(self) -> float:
        """Length of the interval in simulated milliseconds."""
        return self.end_ms - self.start_ms


def _sort_key(span: Span) -> Tuple:
    return (
        span.start_ms,
        span.end_ms,
        span.category,
        span.name,
        -1 if span.slot is None else span.slot,
        -1 if span.app_id is None else span.app_id,
        span.task_id or "",
    )


def build_spans(trace: Trace, end_ms: Optional[float] = None) -> List[Span]:
    """Fold a trace into its interval view.

    ``end_ms`` sets the horizon used to close still-open spans; it
    defaults to the last event's timestamp. The result is sorted by
    ``(start, end, category, ...)`` and is a pure function of the trace,
    so identical runs yield identical span lists.
    """
    spans = [
        Span(interval.kind, _CATEGORIES[interval.kind], *interval[1:])
        for interval in trace_intervals(trace, end_ms)
        if interval.kind in _CATEGORIES
    ]
    spans.sort(key=_sort_key)
    return spans


def expected_span_count(trace: Trace) -> int:
    """Span count implied by the trace's event kinds.

    Every interval is opened by exactly one event: a reconfiguration by
    ``TASK_CONFIG_START``, an item by ``ITEM_START``, a wait by
    ``TASK_PREEMPTED`` or by a ``SLOT_FAULT`` that evicted a resident
    task, and a slot outage by a ``SLOT_FAULT`` on a slot not already
    out of service. The builder closes every opened interval (at its
    pairing event or the horizon), so this count equals
    ``len(build_spans(trace))`` — the exporter tests and the CI
    trace-validation job rely on that identity.
    """
    count = 0
    down = set()
    for event in trace:
        if event.kind in (TraceKind.TASK_CONFIG_START, TraceKind.ITEM_START,
                          TraceKind.TASK_PREEMPTED):
            count += 1
        elif event.kind == TraceKind.SLOT_FAULT:
            if event.slot is not None and event.slot not in down:
                down.add(event.slot)
                count += 1
            if event.app_id is not None:
                count += 1
        elif event.kind == TraceKind.SLOT_REPAIRED:
            down.discard(event.slot)
    return count


def spans_by_category(spans: List[Span]) -> Dict[str, List[Span]]:
    """Group spans by category, preserving order."""
    grouped: Dict[str, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.category, []).append(span)
    return grouped


def config_port_busy_ms(spans: List[Span]) -> float:
    """Total time the configuration port was held by DPR spans."""
    return sum(s.duration_ms for s in spans if s.category == CATEGORY_DPR)
