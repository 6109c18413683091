"""Structured trace of everything that happens on the simulated board.

The hypervisor emits one :class:`TraceEvent` per state change. The metrics
layer (Figures 5-11, Table 3) is computed entirely from traces, so every
experiment is post-processable without re-running the simulation.

Performance notes
-----------------
:class:`Trace` stores events **columnar-internally**: ``record`` appends a
plain ``(time, kind, app_id, task_id, slot, detail)`` tuple, which is far
cheaper than constructing a frozen dataclass on the hot path, and keeps a
per-kind index of row positions so ``of_kind``/``first``/``count`` never
re-scan the full trace. :class:`TraceEvent` objects are
materialised lazily — the first time user code iterates the trace — and
cached, so repeated metric queries pay the construction cost once. None of
this changes what is recorded or in which order: an exported trace is
byte-identical to the pre-columnar format.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple


class TraceKind(str, Enum):
    """Kinds of trace events recorded by the hypervisor."""

    APP_ARRIVED = "app_arrived"
    APP_STARTED = "app_started"          # first task began executing
    APP_RETIRED = "app_retired"
    TASK_CONFIG_START = "task_config_start"
    TASK_CONFIG_DONE = "task_config_done"
    ITEM_START = "item_start"
    ITEM_DONE = "item_done"
    TASK_DONE = "task_done"              # all batch items finished
    TASK_PREEMPTED = "task_preempted"
    TASK_RESUMED = "task_resumed"
    DEADLINE_ASSIGNED = "deadline_assigned"
    SCHEDULER_PASS = "scheduler_pass"
    # Fault-injection kinds (repro.faults). SLOT_FAULT carries the work
    # lost to the in-flight item (ms) in ``detail``; CONFIG_FAILED carries
    # the wasted reconfiguration time; TASK_RELOCATED carries the old slot.
    SLOT_FAULT = "slot_fault"
    SLOT_REPAIRED = "slot_repaired"
    CONFIG_FAILED = "config_failed"
    TASK_RELOCATED = "task_relocated"
    # Overload-protection kinds (repro.admission). APP_REJECTED carries the
    # retry attempt number in ``detail`` (the final rejection of a dropped
    # app carries a negative attempt); APP_SHED carries the victim's
    # priority; OVERLOAD_ENTER/EXIT carry the pending-queue depth at the
    # transition; WATCHDOG_STALL carries the stalled pass count and
    # WATCHDOG_KICK the recovery action's magnitude (slots detached, or the
    # starved app's pre-boost token).
    APP_REJECTED = "app_rejected"
    APP_SHED = "app_shed"
    OVERLOAD_ENTER = "overload_enter"
    OVERLOAD_EXIT = "overload_exit"
    WATCHDOG_STALL = "watchdog_stall"
    WATCHDOG_KICK = "watchdog_kick"


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped occurrence on the simulated platform."""

    time: float
    kind: TraceKind
    app_id: Optional[int] = None
    task_id: Optional[str] = None
    slot: Optional[int] = None
    detail: Optional[float] = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{self.time:10.1f}ms {self.kind.value}"]
        if self.app_id is not None:
            parts.append(f"app={self.app_id}")
        if self.task_id is not None:
            parts.append(f"task={self.task_id}")
        if self.slot is not None:
            parts.append(f"slot={self.slot}")
        if self.detail is not None:
            parts.append(f"detail={self.detail}")
        return " ".join(parts)


#: Internal row layout: mirrors the TraceEvent field order exactly.
_Row = Tuple[float, TraceKind, Optional[int], Optional[str], Optional[int],
             Optional[float]]


class Trace:
    """Append-only log of :class:`TraceEvent` records."""

    __slots__ = ("_rows", "_by_kind", "_cache")

    def __init__(self) -> None:
        self._rows: List[_Row] = []
        #: Row positions per kind, in record (= time) order.
        self._by_kind: Dict[TraceKind, List[int]] = {}
        #: Lazily materialised TraceEvent objects, kept in sync by record.
        self._cache: Optional[List[TraceEvent]] = None

    def record(
        self,
        time: float,
        kind: TraceKind,
        app_id: Optional[int] = None,
        task_id: Optional[str] = None,
        slot: Optional[int] = None,
        detail: Optional[float] = None,
    ) -> None:
        """Append one event to the trace."""
        rows = self._rows
        index = self._by_kind.get(kind)
        if index is None:
            index = self._by_kind[kind] = []
        index.append(len(rows))
        rows.append((time, kind, app_id, task_id, slot, detail))
        if self._cache is not None:
            self._cache.append(
                TraceEvent(time, kind, app_id, task_id, slot, detail)
            )

    def record_many(self, rows: List[_Row]) -> None:
        """Append many events in one call (the replay-cache bulk path).

        ``rows`` are ``(time, kind, app_id, task_id, slot, detail)``
        tuples in record order. Equivalent to calling :meth:`record`
        per row — subclasses with per-event side effects override this
        with a per-row loop so effect order is preserved — but the
        columnar base class appends the whole batch with one ``extend``.
        """
        store = self._rows
        by_kind = self._by_kind
        base = len(store)
        for offset, row in enumerate(rows):
            index = by_kind.get(row[1])
            if index is None:
                index = by_kind[row[1]] = []
            index.append(base + offset)
        store.extend(rows)
        if self._cache is not None:
            self._cache.extend(TraceEvent(*row) for row in rows)

    def record_segment(self, segment, times, app_id: int) -> None:
        """Record a replayed segment's interior rows (see
        :mod:`repro.sim.replay`) for ``app_id``, its events firing at
        ``times``."""
        self.record_many(segment.rows(times, app_id))

    @property
    def events(self) -> List[TraceEvent]:
        """All events in record order (materialised lazily, then cached)."""
        cache = self._cache
        if cache is None:
            cache = self._cache = [TraceEvent(*row) for row in self._rows]
        return cache

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def start_ms(self) -> float:
        """Time of the first recorded event (O(1))."""
        return self._rows[0][0]

    @property
    def end_ms(self) -> float:
        """Time of the last recorded event (O(1))."""
        return self._rows[-1][0]

    def count(self, kind: TraceKind) -> int:
        """Number of events of one kind (O(1) via the kind index)."""
        index = self._by_kind.get(kind)
        return len(index) if index is not None else 0

    def of_kind(self, kind: TraceKind) -> List[TraceEvent]:
        """All events of one kind, in time order."""
        index = self._by_kind.get(kind)
        if not index:
            return []
        if self._cache is not None:
            cache = self._cache
            return [cache[i] for i in index]
        rows = self._rows
        return [TraceEvent(*rows[i]) for i in index]

    def for_app(self, app_id: int) -> List[TraceEvent]:
        """All events belonging to one application."""
        return [event for event in self.events if event.app_id == app_id]

    def first(self, kind: TraceKind, app_id: Optional[int] = None) -> Optional[TraceEvent]:
        """First event of ``kind`` (optionally for one app), or None."""
        index = self._by_kind.get(kind)
        if not index:
            return None
        rows = self._rows
        for i in index:
            row = rows[i]
            if app_id is not None and row[2] != app_id:
                continue
            if self._cache is not None:
                return self._cache[i]
            return TraceEvent(*row)
        return None

    def reconfig_busy_ms(self) -> float:
        """Total time spent reconfiguring slots (successful DPRs only)."""
        from repro.sim.fold import fold_rows

        return fold_rows(self._rows).config_busy_done_ms

    def run_busy_ms(self) -> float:
        """Total task execution time summed over all completed items."""
        from repro.sim.fold import fold_rows

        return fold_rows(self._rows).item_busy_done_ms


class MetricsTrace(Trace):
    """A rowless :class:`Trace` for ``mode="metrics"`` runs.

    ``record`` skips columnar row appends entirely and folds each event
    directly into lifetime counters: the per-kind counts, first/last
    timestamps and busy-time accumulators every *aggregate* consumer
    (admission controller, watchdog, observe counter folds, service
    windows, cluster board payloads) reads are **exact** — identical to
    what a full-mode trace would report — while memory stays O(1) in
    the event count.

    Busy time is paired *streaming* by the live
    :class:`~repro.sim.fold.TraceFold`, the same fold a full-mode trace
    replays its rows through, so :meth:`run_busy_ms` and
    :meth:`reconfig_busy_ms` equal the full-mode values to the bit.

    Row-level queries (``events``, iteration, ``of_kind``, ``first``,
    ``for_app``) have nothing to read and raise
    :class:`~repro.errors.ExperimentError` naming the fix: rerun with
    ``mode="full"``.
    """

    __slots__ = ("_total", "_total_by_kind", "_first_ms", "_last_ms",
                 "fold")

    def __init__(self) -> None:
        super().__init__()
        # Deferred import: sim.fold imports TraceKind from this module.
        from repro.sim.fold import TraceFold

        self._total = 0
        self._total_by_kind: Dict[TraceKind, int] = {}
        self._first_ms: Optional[float] = None
        self._last_ms: Optional[float] = None
        #: Live span/recovery fold; the observe layer snapshots from it
        #: (full mode builds the identical fold by replaying rows). The
        #: fold also carries the DONE-paired busy totals, so ``record``
        #: needs no pairing of its own.
        self.fold = TraceFold()

    def record(
        self,
        time: float,
        kind: TraceKind,
        app_id: Optional[int] = None,
        task_id: Optional[str] = None,
        slot: Optional[int] = None,
        detail: Optional[float] = None,
    ) -> None:
        """Fold one event into the lifetime aggregates (no row stored)."""
        self._total += 1
        by_kind = self._total_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if self._first_ms is None:
            self._first_ms = time
        self._last_ms = time
        # Record order is time order, so the fold's start-overwrites and
        # done-pops see the same pairs the full-mode row scan would.
        self.fold.feed(time, kind, app_id, task_id, slot, detail)

    def record_many(self, rows) -> None:
        """Fold many events in record order (no rows stored).

        Per-row loop (not a columnar append): every row must pass
        through :meth:`record` so the streaming fold sees events in the
        exact order a live run would feed them.
        """
        record = self.record
        for time, kind, app_id, task_id, slot, detail in rows:
            record(time, kind, app_id, task_id, slot, detail)

    def record_segment(self, segment, times, app_id: int) -> None:
        """Fold a replayed segment from its compiled plan (no rows built).

        The plan's counts land exactly where :meth:`record` per row would
        put them; ``_total_by_kind`` is updated in place because the
        watchdog holds a reference to it.
        """
        plan = segment.plan
        self.fold.apply_plan(plan, times)
        self._total += plan.rows
        by_kind = self._total_by_kind
        for kind, count in plan.kind_counts:
            by_kind[kind] = by_kind.get(kind, 0) + count
        if self._first_ms is None:
            self._first_ms = times[plan.first]
        self._last_ms = times[plan.last]

    def _rows_unavailable(self, what: str) -> "ExperimentError":
        from repro.errors import ExperimentError

        return ExperimentError(
            f"{what} requires trace rows, which mode='metrics' does not "
            "record; rerun with mode='full'"
        )

    # -- lifetime aggregates (exact over every recorded event) ----------
    def __len__(self) -> int:
        return self._total

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (all folded, none stored)."""
        return self._total

    def count(self, kind: TraceKind) -> int:
        """Lifetime number of events of one kind (O(1))."""
        return self._total_by_kind.get(kind, 0)

    @property
    def start_ms(self) -> float:
        """Time of the first event ever recorded (O(1))."""
        if self._first_ms is None:
            raise IndexError("trace is empty")
        return self._first_ms

    @property
    def end_ms(self) -> float:
        """Time of the last event ever recorded (O(1))."""
        if self._last_ms is None:
            raise IndexError("trace is empty")
        return self._last_ms

    def reconfig_busy_ms(self) -> float:
        """Whole-board reconfiguration busy time (exact, streaming)."""
        return self.fold.config_busy_done_ms

    def run_busy_ms(self) -> float:
        """Whole-board item execution busy time (exact, streaming)."""
        return self.fold.item_busy_done_ms

    # -- row-level queries: nothing to read --------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        raise self._rows_unavailable("trace row access")

    def __iter__(self) -> Iterator[TraceEvent]:
        raise self._rows_unavailable("trace iteration")

    def of_kind(self, kind: TraceKind) -> List[TraceEvent]:
        raise self._rows_unavailable("of_kind row query")

    def for_app(self, app_id: int) -> List[TraceEvent]:
        raise self._rows_unavailable("for_app row query")

    def first(self, kind: TraceKind, app_id: Optional[int] = None):
        raise self._rows_unavailable("first-event row query")


class BoundedTrace(Trace):
    """A :class:`Trace` retaining only the most recent ``capacity`` rows.

    The online service tier (:mod:`repro.service`) runs to millions of
    submissions; an append-only trace would dominate memory long before
    the run finished. ``BoundedTrace`` keeps the lifetime aggregates the
    admission controller and watchdog consume **exact** — :meth:`count`,
    :attr:`total_recorded`, :attr:`start_ms` and :attr:`end_ms` cover
    every event ever recorded — while row storage is trimmed to a tail of
    the most recent ``capacity`` events (a debugging window). Row-level
    queries (``events``, ``of_kind``, ``first``, the busy-time
    accumulators) therefore see only the retained tail; full-fidelity
    post-processing belongs to closed runs on the unbounded parent.

    Trimming drops the oldest half once ``2 * capacity`` rows accumulate,
    so ``record`` stays amortized O(1) and memory is O(capacity)
    regardless of run length.
    """

    __slots__ = ("capacity", "_total", "_total_by_kind", "_first_ms",
                 "_last_ms")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = capacity
        self._total = 0
        self._total_by_kind: Dict[TraceKind, int] = {}
        self._first_ms: Optional[float] = None
        self._last_ms: Optional[float] = None

    def record(
        self,
        time: float,
        kind: TraceKind,
        app_id: Optional[int] = None,
        task_id: Optional[str] = None,
        slot: Optional[int] = None,
        detail: Optional[float] = None,
    ) -> None:
        """Append one event, trimming the retained tail when it fills."""
        self._total += 1
        self._total_by_kind[kind] = self._total_by_kind.get(kind, 0) + 1
        if self._first_ms is None:
            self._first_ms = time
        self._last_ms = time
        super().record(time, kind, app_id, task_id, slot, detail)
        if len(self._rows) >= 2 * self.capacity:
            self._trim()

    def record_many(self, rows) -> None:
        """Append many events, trimming as each lands.

        Per-row loop: trim points must fall exactly where a live
        per-event run would place them, so the retained tail is
        identical whether rows arrived singly or in bulk.
        """
        record = self.record
        for time, kind, app_id, task_id, slot, detail in rows:
            record(time, kind, app_id, task_id, slot, detail)

    def _trim(self) -> None:
        rows = self._rows[-self.capacity:]
        self._rows = rows
        by_kind: Dict[TraceKind, List[int]] = {}
        for position, row in enumerate(rows):
            index = by_kind.get(row[1])
            if index is None:
                index = by_kind[row[1]] = []
            index.append(position)
        self._by_kind = by_kind
        self._cache = None

    # -- lifetime aggregates (exact over every recorded event) ----------
    @property
    def total_recorded(self) -> int:
        """Events ever recorded, including trimmed ones."""
        return self._total

    @property
    def dropped(self) -> int:
        """Events trimmed away (``total_recorded`` minus retained)."""
        return self._total - len(self._rows)

    def count(self, kind: TraceKind) -> int:
        """Lifetime number of events of one kind (trim-proof, O(1))."""
        return self._total_by_kind.get(kind, 0)

    @property
    def start_ms(self) -> float:
        """Time of the first event ever recorded (O(1), trim-proof)."""
        if self._first_ms is None:
            raise IndexError("trace is empty")
        return self._first_ms

    @property
    def end_ms(self) -> float:
        """Time of the last event ever recorded (O(1), trim-proof)."""
        if self._last_ms is None:
            raise IndexError("trace is empty")
        return self._last_ms
