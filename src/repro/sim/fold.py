"""The one interval pairing over trace events, shared by every reader.

Everything the evaluation reads off a run as a duration is an interval
paired from two trace edges. :class:`TraceFold` is the only code that
pairs them; the observe snapshot reads :meth:`TraceFold.aggregates`,
the span view and the recovery metrics read :func:`trace_intervals`,
and ``Trace.run_busy_ms`` / ``reconfig_busy_ms`` read its DONE-paired
busy totals. A metrics-mode trace feeds its fold live from ``record``;
a full-mode trace replays its stored rows through the identical code in
the identical (record = time) order, so equal inputs produce
bit-identical aggregates, float sums included (tests/test_mode_equivalence).

The pairing rules, by ``Interval.kind``:

* ``dpr``: TASK_CONFIG_START closed by TASK_CONFIG_DONE or CONFIG_FAILED;
* ``item``: ITEM_START closed by ITEM_DONE, or killed at SLOT_FAULT on
  the same slot;
* ``preempted`` / ``evicted``: TASK_PREEMPTED, or a SLOT_FAULT that
  evicted a resident task, closed by TASK_RESUMED;
* ``slot-fault``: an outage opens at a slot's first SLOT_FAULT and
  closes at its next SLOT_REPAIRED; faults in between open nothing;
* ``dpr-retry``: the first CONFIG_FAILED of a task closed by its next
  successful TASK_CONFIG_DONE.

Recoveries are the closed ``slot-fault`` and ``dpr-retry`` intervals.
:meth:`TraceFold.open_intervals` closes the rest at the horizon, except
open recoveries, which have no recovery time yet. Neither it nor
``aggregates`` mutates the fold, so a run can be snapshot more than once.

A replayed segment (:mod:`repro.sim.replay`) reaches a metrics-mode
fold as a :class:`FoldPlan`: :func:`compile_plan` pairs the segment's
rows once, by event ordinal, through :meth:`TraceFold.feed`, and
:meth:`TraceFold.apply_plan` adds each interval's duration at the
segment's absolute fire times to the accumulators ``feed`` would have
updated, in the same order.

This module is dependency-free within the sim layer; the observe layer
imports *from* it (``MS_BUCKETS`` lives here so a metrics-mode
hypervisor never has to import the observe package).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.sim.trace import MetricsTrace, Trace, TraceKind

#: Histogram buckets for simulated-millisecond durations. Canonical
#: definition — ``repro.observe.metrics`` re-exports it.
MS_BUCKETS: Tuple[float, ...] = (
    1.0, 5.0, 10.0, 50.0, 80.0, 100.0, 200.0, 500.0,
    1_000.0, 5_000.0, 10_000.0, 60_000.0,
)


class _HistStream:
    """Fixed-bucket duration accumulator (Prometheus observe semantics).

    Observations land in *raw* per-bucket bins via ``bisect`` (one C-level
    search instead of a Python loop over every bucket); the cumulative
    ≤-upper-bound counts Prometheus semantics call for are materialized
    on demand by :attr:`bucket_counts`, which only snapshots read.
    """

    __slots__ = ("buckets", "_bins", "count", "sum")

    def __init__(self, buckets: Tuple[float, ...] = MS_BUCKETS) -> None:
        self.buckets = buckets
        self._bins = [0] * len(buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        index = bisect_left(self.buckets, value)
        if index < len(self._bins):
            self._bins[index] += 1

    def observe_spans(self, spans, times) -> List[float]:
        """Observe ``times[end] - times[start]`` per ``(start, end)``, in
        order (``observe`` per span); returns the durations."""
        durations = [times[end] - times[start] for start, end in spans]
        buckets = self.buckets
        bins = self._bins
        total = self.sum
        for duration in durations:
            total += duration
            index = bisect_left(buckets, duration)
            if index < len(bins):
                bins[index] += 1
        self.sum = total
        self.count += len(durations)
        return durations

    @property
    def bucket_counts(self) -> List[int]:
        """Cumulative counts (observations ≤ each bucket's upper bound)."""
        counts = []
        total = 0
        for bin_count in self._bins:
            total += bin_count
            counts.append(total)
        return counts

    def copy(self) -> "_HistStream":
        clone = _HistStream(self.buckets)
        clone._bins = list(self._bins)
        clone.count = self.count
        clone.sum = self.sum
        return clone


#: ``Interval.kind`` values. The first five are also the span names.
DPR = "dpr"
ITEM = "item"
PREEMPTED = "preempted"
EVICTED = "evicted"
OUTAGE = "slot-fault"
DPR_RETRY = "dpr-retry"
WAITS = (PREEMPTED, EVICTED)
RECOVERIES = (OUTAGE, DPR_RETRY)


class Interval(NamedTuple):
    """One paired interval; the fields after ``kind`` follow ``Span``.

    A wait's ``slot`` is the one its task left. ``ok`` is False when the
    interval ended abnormally or is still open at the horizon.
    ``detail`` is the opening event's payload, except that a ``dpr``
    carries its closing event's (a failed DPR's wasted port time) and a
    ``dpr-retry`` carries none.
    """

    kind: str
    start_ms: float
    end_ms: float
    slot: Optional[int]
    app_id: Optional[int]
    task_id: Optional[str]
    ok: bool
    detail: Optional[float]


class FoldPlan(NamedTuple):
    """A segment's whole effect on a fold and on a trace's counters.

    Times are event ordinals of the segment; the spans of each kind are
    ``(start, end)`` ordinal pairs in the order the fold closed them.
    """

    items: Tuple[Tuple[int, int], ...]
    dprs: Tuple[Tuple[int, int], ...]
    waits: Tuple[Tuple[int, int], ...]
    #: Rows per kind, kinds in order of first appearance.
    kind_counts: Tuple[Tuple[TraceKind, int], ...]
    rows: int
    #: Peak concurrently open items, counted from the starting depth.
    peak: int
    first: int
    last: int


@dataclass
class FoldAggregates:
    """Everything ``observe_run`` reads off a finished fold."""

    dpr: _HistStream
    item: _HistStream
    wait: _HistStream
    recovery: _HistStream
    dpr_busy_ms: float
    compute_busy_ms: float
    peak_compute: int


class TraceFold:
    """Streaming interval pairing over one run's trace events."""

    __slots__ = ("_dpr", "_item", "_wait", "_recovery",
                 "_dpr_busy", "_compute_busy", "_depth", "_peak",
                 "item_busy_done_ms", "config_busy_done_ms", "_closed",
                 "_open_configs", "_open_items", "_open_waits",
                 "_open_slot_faults", "_open_config_faults")

    def __init__(self) -> None:
        self._dpr = _HistStream()
        self._item = _HistStream()
        self._wait = _HistStream()
        self._recovery = _HistStream()
        self._dpr_busy = 0.0
        self._compute_busy = 0.0
        #: DONE-paired busy totals (``Trace.run_busy_ms`` /
        #: ``reconfig_busy_ms``): unlike the accumulators above, these
        #: exclude spans killed by faults or still open.
        self.item_busy_done_ms = 0.0
        self.config_busy_done_ms = 0.0
        #: Concurrently open compute spans (streaming peak-concurrency).
        self._depth = 0
        self._peak = 0
        #: Closed intervals in closing order, kept only for
        #: :func:`trace_intervals`: a live fold stays O(1) in memory.
        self._closed: Optional[List[Interval]] = None
        # Open intervals: start time, plus what the closing event lacks.
        self._open_configs: Dict[tuple, float] = {}
        self._open_items: Dict[tuple, tuple] = {}
        self._open_waits: Dict[tuple, tuple] = {}
        self._open_slot_faults: Dict[int, tuple] = {}
        self._open_config_faults: Dict[tuple, float] = {}

    def feed(
        self,
        time: float,
        kind: TraceKind,
        app_id: Optional[int] = None,
        task_id: Optional[str] = None,
        slot: Optional[int] = None,
        detail: Optional[float] = None,
    ) -> None:
        """Fold one trace event (must arrive in record order).

        The dispatch chain is ordered by event frequency — item starts
        and completions dominate every workload (one pair per batch
        item), reconfigurations come second — since each event walks the
        chain until its kind matches. Kinds are mutually exclusive, so
        ordering cannot change what is folded.
        """
        if kind is TraceKind.ITEM_DONE:
            opened = self._open_items.pop((app_id, task_id, slot), None)
            if opened is not None:
                started, item = opened
                duration = time - started
                self._item.observe(duration)
                self._compute_busy += duration
                self.item_busy_done_ms += duration
                self._depth -= 1
                if self._closed is not None:
                    self._closed.append(Interval(
                        ITEM, started, time, slot, app_id, task_id, True, item,
                    ))
        elif kind is TraceKind.ITEM_START:
            self._open_items[(app_id, task_id, slot)] = (time, detail)
            self._depth += 1
            if self._depth > self._peak:
                self._peak = self._depth
        elif kind is TraceKind.TASK_CONFIG_START:
            self._open_configs[(app_id, task_id, slot)] = time
        elif kind is TraceKind.TASK_CONFIG_DONE:
            started = self._open_configs.pop((app_id, task_id, slot), None)
            if started is not None:
                duration = time - started
                self._dpr.observe(duration)
                self._dpr_busy += duration
                self.config_busy_done_ms += duration
                if self._closed is not None:
                    self._closed.append(Interval(
                        DPR, started, time, slot, app_id, task_id, True,
                        detail,
                    ))
            failed = self._open_config_faults.pop((app_id, task_id), None)
            if failed is not None:
                self._recovery.observe(time - failed)
                if self._closed is not None:
                    self._closed.append(Interval(
                        DPR_RETRY, failed, time, slot, app_id, task_id, True,
                        None,
                    ))
        elif kind is TraceKind.CONFIG_FAILED:
            started = self._open_configs.pop((app_id, task_id, slot), None)
            if started is not None:
                duration = time - started
                self._dpr.observe(duration)
                self._dpr_busy += duration
                if self._closed is not None:
                    self._closed.append(Interval(
                        DPR, started, time, slot, app_id, task_id, False,
                        detail,
                    ))
            self._open_config_faults.setdefault((app_id, task_id), time)
        elif kind is TraceKind.TASK_PREEMPTED:
            self._open_waits[(app_id, task_id)] = (
                time, PREEMPTED, slot, detail,
            )
        elif kind is TraceKind.TASK_RESUMED:
            opened = self._open_waits.pop((app_id, task_id), None)
            if opened is not None:
                started, name, left, carried = opened
                self._wait.observe(time - started)
                if self._closed is not None:
                    self._closed.append(Interval(
                        name, started, time, left, app_id, task_id, True,
                        carried,
                    ))
        elif kind is TraceKind.SLOT_FAULT:
            if slot is not None:
                # The fault kills whatever item was in flight on the slot.
                for key in [k for k in self._open_items if k[2] == slot]:
                    started, item = self._open_items.pop(key)
                    duration = time - started
                    self._item.observe(duration)
                    self._compute_busy += duration
                    self._depth -= 1
                    if self._closed is not None:
                        self._closed.append(Interval(
                            ITEM, started, time, slot, key[0], key[1], False,
                            item,
                        ))
                # Repeat faults before the repair open no second outage.
                self._open_slot_faults.setdefault(slot, (time, detail))
            if app_id is not None:
                self._open_waits[(app_id, task_id)] = (
                    time, EVICTED, slot, detail,
                )
        elif kind is TraceKind.SLOT_REPAIRED:
            if slot is not None:
                opened = self._open_slot_faults.pop(slot, None)
                if opened is not None:
                    started, lost = opened
                    self._recovery.observe(time - started)
                    if self._closed is not None:
                        self._closed.append(Interval(
                            OUTAGE, started, time, slot, None, None, True,
                            lost,
                        ))

    def apply_plan(self, plan: FoldPlan, times) -> None:
        """Fold a compiled segment whose event ordinals fire at ``times``.

        Equal to feeding the segment's rows: every accumulator gets the
        same float additions in the same order (plain ``+=`` loops, not
        ``sum``, which compensates rounding from Python 3.12 on).
        Durations, and with them the histogram buckets, depend on the
        absolute start, so both are computed per application.
        """
        compute_busy = self._compute_busy
        done = self.item_busy_done_ms
        for duration in self._item.observe_spans(plan.items, times):
            compute_busy += duration
            done += duration
        self._compute_busy = compute_busy
        self.item_busy_done_ms = done
        dpr_busy = self._dpr_busy
        done = self.config_busy_done_ms
        for duration in self._dpr.observe_spans(plan.dprs, times):
            dpr_busy += duration
            done += duration
        self._dpr_busy = dpr_busy
        self.config_busy_done_ms = done
        self._wait.observe_spans(plan.waits, times)
        if self._depth + plan.peak > self._peak:
            self._peak = self._depth + plan.peak

    def open_intervals(self, horizon: float) -> List[Interval]:
        """The still-open intervals, closed at ``horizon`` with ``ok=False``.

        Reconfigurations, items, waits, then outages, each in opening
        order; an open DPR retry has no recovery time and is left out.
        """
        opened = [(DPR, start, slot, app_id, task_id, None)
                  for (app_id, task_id, slot), start
                  in self._open_configs.items()]
        opened += [(ITEM, start, slot, app_id, task_id, item)
                   for (app_id, task_id, slot), (start, item)
                   in self._open_items.items()]
        opened += [(name, start, slot, app_id, task_id, detail)
                   for (app_id, task_id), (start, name, slot, detail)
                   in self._open_waits.items()]
        opened += [(OUTAGE, start, slot, None, None, detail)
                   for slot, (start, detail) in self._open_slot_faults.items()]
        return [
            Interval(kind, start, max(horizon, start), slot, app_id,
                     task_id, False, detail)
            for kind, start, slot, app_id, task_id, detail in opened
        ]

    def aggregates(self, horizon: float) -> FoldAggregates:
        """Close still-open intervals at ``horizon`` (without mutating)."""
        dpr = self._dpr.copy()
        item = self._item.copy()
        wait = self._wait.copy()
        dpr_busy = self._dpr_busy
        compute_busy = self._compute_busy
        for interval in self.open_intervals(horizon):
            duration = interval.end_ms - interval.start_ms
            if interval.kind == DPR:
                dpr.observe(duration)
                dpr_busy += duration
            elif interval.kind == ITEM:
                item.observe(duration)
                compute_busy += duration
            elif interval.kind in WAITS:
                wait.observe(duration)
        return FoldAggregates(
            dpr=dpr, item=item, wait=wait, recovery=self._recovery.copy(),
            dpr_busy_ms=dpr_busy, compute_busy_ms=compute_busy,
            peak_compute=self._peak,
        )


def fold_rows(rows) -> TraceFold:
    """Replay stored trace rows (full mode) through a fresh fold."""
    fold = TraceFold()
    feed = fold.feed
    for row in rows:
        feed(*row)
    return fold


def compile_plan(rows) -> Optional[FoldPlan]:
    """Pair a segment's rows, timed by event ordinal, into a plan.

    None when the rows leave an interval open or close one abnormally
    (a fault kill, a failed DPR, a recovery): such a segment has an
    effect on the fold that the plan does not carry.
    """
    fold = TraceFold()
    fold._closed = []
    counts: Dict[TraceKind, int] = {}
    for row in rows:
        counts[row[1]] = counts.get(row[1], 0) + 1
        fold.feed(*row)
    if (
        not counts or fold._depth or fold._open_config_faults
        or fold.open_intervals(0)
    ):
        return None
    items: List[Tuple[int, int]] = []
    dprs: List[Tuple[int, int]] = []
    waits: List[Tuple[int, int]] = []
    groups = {ITEM: items, DPR: dprs, PREEMPTED: waits, EVICTED: waits}
    for interval in fold._closed:
        group = groups.get(interval.kind)
        if group is None or not interval.ok:
            return None
        group.append((interval.start_ms, interval.end_ms))
    return FoldPlan(
        items=tuple(items), dprs=tuple(dprs), waits=tuple(waits),
        kind_counts=tuple(counts.items()), rows=len(rows),
        peak=fold._peak, first=rows[0][0], last=rows[-1][0],
    )


def trace_intervals(
    trace: Trace, end_ms: Optional[float] = None
) -> List[Interval]:
    """Every interval of a trace's stored rows, as the fold pairs them.

    Closed intervals in closing order, then the ones still open at
    ``end_ms`` (default: the last event's time). A metrics-mode trace
    has no rows to pair and raises :class:`~repro.errors.ExperimentError`.
    """
    if isinstance(trace, MetricsTrace):
        raise trace._rows_unavailable("interval pairing")
    fold = TraceFold()
    fold._closed = []
    for row in trace._rows:
        fold.feed(*row)
    if end_ms is None:
        end_ms = trace.end_ms if len(trace) else 0.0
    return fold._closed + fold.open_intervals(end_ms)
