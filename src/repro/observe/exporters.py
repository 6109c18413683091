"""Exporters: Chrome/Perfetto ``trace_event`` JSON, JSONL and Prometheus.

Three interchange formats over one run:

* **Chrome trace** (:func:`spans_to_chrome`) — the span view as complete
  (``"ph": "X"``) events, loadable in Perfetto (https://ui.perfetto.dev)
  or ``chrome://tracing``. Tracks: one row for the configuration port
  (making DPR serialization visible), one row per slot, one row per
  application for off-board waits.
* **JSONL** (:func:`trace_to_jsonl`) — one raw :class:`TraceEvent` per
  line, for streaming consumers (``jq``, spreadsheets, log shippers).
* **Prometheus text** (:func:`snapshot_to_prometheus`) — a metrics
  snapshot in the text exposition format for scraping/diffing.

All exporters are pure functions of their inputs, so identical runs
export byte-identical artifacts — the ``stats`` entry of the
``determinism`` CI job relies on this when it diffs serial against
parallel metrics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ExperimentError
from repro.observe.metrics import to_prometheus
from repro.observe.spans import (
    CATEGORY_DPR,
    CATEGORY_FAULT,
    CATEGORY_WAIT,
    Span,
    build_spans,
    expected_span_count,
)
from repro.sim.trace import Trace

#: Synthetic process id for the single simulated board.
CHROME_PID = 1

#: Thread-id layout of the Chrome trace: the configuration port gets row
#: 0, slot ``i`` gets row ``1 + i``, and per-app wait rows start here.
CHROME_TID_CONFIG_PORT = 0
CHROME_TID_SLOT_BASE = 1
CHROME_TID_WAIT_BASE = 1000


def _chrome_tid(span: Span) -> int:
    if span.category == CATEGORY_DPR:
        return CHROME_TID_CONFIG_PORT
    if span.category == CATEGORY_WAIT:
        return CHROME_TID_WAIT_BASE + (span.app_id or 0)
    return CHROME_TID_SLOT_BASE + (span.slot if span.slot is not None else 0)


def spans_to_chrome(
    spans: Sequence[Span],
    label: str = "nimblock",
    num_slots: Optional[int] = None,
) -> dict:
    """Chrome ``trace_event`` JSON (object format) for a span list.

    Timestamps are microseconds as the format requires; 1 simulated ms
    maps to 1000 ``ts`` units.
    """
    events: List[dict] = [
        {
            "name": "process_name", "ph": "M", "pid": CHROME_PID, "tid": 0,
            "args": {"name": f"FPGA board ({label})"},
        },
        {
            "name": "thread_name", "ph": "M", "pid": CHROME_PID,
            "tid": CHROME_TID_CONFIG_PORT,
            "args": {"name": "config port (CAP)"},
        },
    ]
    slots = sorted(
        {s.slot for s in spans if s.slot is not None}
        | set(range(num_slots or 0))
    )
    for slot in slots:
        events.append({
            "name": "thread_name", "ph": "M", "pid": CHROME_PID,
            "tid": CHROME_TID_SLOT_BASE + slot,
            "args": {"name": f"slot {slot}"},
        })
    for app_id in sorted(
        {s.app_id for s in spans
         if s.category == CATEGORY_WAIT and s.app_id is not None}
    ):
        events.append({
            "name": "thread_name", "ph": "M", "pid": CHROME_PID,
            "tid": CHROME_TID_WAIT_BASE + app_id,
            "args": {"name": f"app {app_id} waiting"},
        })
    for span in spans:
        name = span.name
        if span.task_id is not None:
            name = f"{span.name} {span.task_id}"
            if span.app_id is not None:
                name += f" (app {span.app_id})"
        args: Dict[str, object] = {"ok": span.ok}
        if span.app_id is not None:
            args["app_id"] = span.app_id
        if span.task_id is not None:
            args["task_id"] = span.task_id
        if span.slot is not None:
            args["slot"] = span.slot
        if span.detail is not None:
            args["detail"] = span.detail
        events.append({
            "name": name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start_ms * 1000.0,
            "dur": span.duration_ms * 1000.0,
            "pid": CHROME_PID,
            "tid": _chrome_tid(span),
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "spans": len(spans)},
    }


def trace_to_chrome(
    trace: Trace, label: str = "nimblock", num_slots: Optional[int] = None
) -> dict:
    """Convenience: build spans from a trace and export them."""
    return spans_to_chrome(
        build_spans(trace), label=label, num_slots=num_slots
    )


def validate_chrome_trace(payload: dict) -> int:
    """Check a Chrome trace parses as well-formed ``trace_event`` JSON.

    Returns the number of span (``"ph": "X"``) events; raises
    :class:`ExperimentError` on malformed input. Used by the CI
    observability job and the exporter tests.
    """
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        raise ExperimentError(
            "chrome trace must be an object with a traceEvents list"
        )
    span_events = 0
    for index, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict):
            raise ExperimentError(f"traceEvents[{index}] is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                raise ExperimentError(
                    f"traceEvents[{index}] is missing {field!r}"
                )
        if event["ph"] == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ExperimentError(
                        f"traceEvents[{index}].{field} must be a "
                        f"non-negative number, got {value!r}"
                    )
            span_events += 1
        elif event["ph"] != "M":
            raise ExperimentError(
                f"traceEvents[{index}] has unexpected phase {event['ph']!r}"
            )
    return span_events


def save_chrome_trace(
    trace: Trace,
    path: Union[str, Path],
    label: str = "nimblock",
    num_slots: Optional[int] = None,
) -> Path:
    """Write a Perfetto-loadable Chrome trace for one run; returns path.

    The span count in the payload always matches
    :func:`~repro.observe.spans.expected_span_count` for the trace.
    """
    payload = trace_to_chrome(trace, label=label, num_slots=num_slots)
    assert validate_chrome_trace(payload) == expected_span_count(trace)
    path = Path(path)
    path.write_text(
        json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def trace_to_jsonl(trace: Trace) -> str:
    """One compact JSON object per trace event, newline-delimited."""
    lines = []
    for event in trace:
        record: Dict[str, object] = {
            "time": event.time, "kind": event.kind.value,
        }
        if event.app_id is not None:
            record["app_id"] = event.app_id
        if event.task_id is not None:
            record["task_id"] = event.task_id
        if event.slot is not None:
            record["slot"] = event.slot
        if event.detail is not None:
            record["detail"] = event.detail
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_to_prometheus(snapshot: dict) -> str:
    """Metrics snapshot in the Prometheus text exposition format.

    The optional ``profile`` section (wall-clock, non-deterministic) is
    appended after a marker comment so deterministic consumers can split
    it off.
    """
    text = to_prometheus(snapshot)
    profile = snapshot.get("profile")
    if profile:
        text += "# profile (wall-clock, non-deterministic)\n"
        text += to_prometheus(profile)
    return text
