"""Array-native event core of the discrete-event simulator.

The engine owns the virtual clock and a set of pending
``(time, priority, seq, callback, handle)`` entries. The ``seq`` number
makes ordering fully deterministic — two events scheduled for the same
instant fire in scheduling order, so repeated runs of the same workload
produce byte-identical traces.

Performance notes
-----------------
Pending events live in three plain-array structures instead of one
binary heap:

* ``_staged`` — an unsorted append-only list of entries scheduled while
  the engine is idle (between ``run()`` calls). Appending is O(1) with
  no sift.
* ``_run_list`` — the staged entries sorted **descending** once at
  ``run()`` entry, so the next event is always ``_run_list[-1]`` and
  popping it is an O(1) ``list.pop()``. One bulk Timsort over n entries
  is far cheaper than n ``heapq`` sifts.
* ``_overflow`` — a small min-heap for entries scheduled *during* the
  run by event callbacks. The loop compares the run-list tail against
  the overflow head each pop; in practice the overflow heap stays tiny
  (only the dynamic frontier lives there), so its ``heappush`` cost is
  amortised over far fewer elements than a single global heap.

Entries are plain tuples of scalars; comparisons stop at the unique
``seq`` and never reach the trailing callback/handle. The optional
:class:`Event` handle is only allocated by the compatibility API
(:meth:`SimulationEngine.schedule_at` / ``schedule_after``); hot
internal paths use the raw :meth:`SimulationEngine.schedule` /
``schedule_delay`` entry points which return a bare ``seq`` int and
allocate nothing beyond the entry tuple. Cancellation is a (usually
empty) set of cancelled seqs consulted at pop time, and ``_live`` keeps
:attr:`SimulationEngine.pending` O(1). None of this affects event
ordering: the merge of the three structures pops in exact
``(time, priority, seq)`` order, byte-identical to the heap it
replaced (pinned by ``tests/test_perf_equivalence.py``).

Run modes (``"full"``/``"metrics"``) are the hypervisor's concern: it
picks the trace, and event ordering and timing are identical in both.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.errors import SimulationError

#: Signature of a simulation callback; receives the firing time.
EventCallback = Callable[[float], None]


class Event:
    """A cancellable handle to a pending simulation event.

    Events order by ``(time, priority, seq)``; the callback itself never
    participates in comparisons. Lower ``priority`` fires first among
    same-time events, which lets the hypervisor order e.g. completions
    before the scheduling pass that reacts to them.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled",
                 "_fired", "_engine")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: EventCallback,
        engine: Optional["SimulationEngine"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._fired = False
        self._engine = engine

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            engine._cancel_seq(self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return (
            f"Event(time={self.time}, priority={self.priority}, "
            f"seq={self.seq}{flag})"
        )


class SimulationEngine:
    """A deterministic discrete-event loop.

    Example
    -------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule_at(5.0, lambda now: fired.append(now))
    >>> engine.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        # Entries are (time, priority, seq, callback, handle) tuples:
        # comparisons stop at the unique seq, never touching the
        # callback. handle is the Event object for schedule_at/
        # schedule_after, None for the raw schedule()/schedule_delay().
        self._staged: list = []     # scheduled while idle; unsorted
        self._run_list: list = []   # sorted DESCENDING; next event at [-1]
        self._overflow: list = []   # min-heap; scheduled while running
        self._cancelled: set = set()
        self._seq = 0
        self._running = False
        self._processed = 0
        # Cancels ever issued (monotonic). ``pending`` is derived as
        # seq - processed - cancels, so neither schedule nor the hot
        # loop maintains a live counter per event.
        self._cancel_count = 0

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return self._seq - self._processed - self._cancel_count

    @property
    def processed(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._processed

    # -- raw array-native API (no handle allocation) --------------------
    def schedule(
        self, time: float, callback: EventCallback, priority: int = 0
    ) -> int:
        """Schedule ``callback`` at absolute ``time``; returns its seq.

        The no-handle fast path: allocates only the entry tuple. Use
        :meth:`cancel` with the returned seq — but only while the event
        is still pending; callers must track firing themselves (the
        hypervisor pops its bookkeeping on completion, so it never
        cancels a fired seq). When a cancellable handle with safe
        late-cancel semantics is needed, use :meth:`schedule_at`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        # Raw entries are 4-tuples (no handle slot). Mixed 4/5-tuple
        # comparisons are safe: seq is unique, so ordering is decided
        # at index 2 and never reaches the callback.
        entry = (time, priority, seq, callback)
        if self._running:
            heapq.heappush(self._overflow, entry)
        else:
            self._staged.append(entry)
        return seq

    def schedule_delay(
        self, delay: float, callback: EventCallback, priority: int = 0
    ) -> int:
        """Schedule ``callback`` ``delay`` ms from now; returns its seq."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # now + delay >= now holds whenever delay >= 0.
        seq = self._seq
        self._seq = seq + 1
        entry = (self._now + delay, priority, seq, callback)
        if self._running:
            heapq.heappush(self._overflow, entry)
        else:
            self._staged.append(entry)
        return seq

    def cancel(self, seq: int) -> None:
        """Cancel a pending raw-scheduled event by seq.

        The seq must still be pending (scheduled, not yet fired): the
        raw path keeps no per-event record of firing, so cancelling an
        already-fired seq would skew the live count and could suppress
        a future event reusing the set slot. ``schedule_at`` handles
        carry that protection; raw callers own it themselves.
        """
        if seq in self._cancelled:
            return
        self._cancelled.add(seq)
        self._cancel_count += 1

    def _cancel_seq(self, seq: int) -> None:
        # Event.cancel() guards against fired/double cancels already.
        self._cancelled.add(seq)
        self._cancel_count += 1

    # -- Event-handle compatibility API ----------------------------------
    def schedule_at(
        self, time: float, callback: EventCallback, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to fire at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, self)
        entry = (time, priority, seq, callback, event)
        if self._running:
            heapq.heappush(self._overflow, entry)
        else:
            self._staged.append(entry)
        return event

    def schedule_after(
        self, delay: float, callback: EventCallback, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, self)
        entry = (time, priority, seq, callback, event)
        if self._running:
            heapq.heappush(self._overflow, entry)
        else:
            self._staged.append(entry)
        return event

    # -- execution --------------------------------------------------------
    def _merge_staged(self) -> None:
        """Fold newly staged entries into the sorted run list."""
        staged = self._staged
        if staged:
            staged.sort(reverse=True)
            run_list = self._run_list
            if run_list:
                # Two descending runs concatenated: Timsort merges them
                # in O(n) without comparisons inside either run.
                run_list.extend(staged)
                run_list.sort(reverse=True)
                staged.clear()
            else:
                self._run_list = staged
                self._staged = []

    def step(self) -> bool:
        """Execute the next event. Returns False if nothing is pending."""
        self._merge_staged()
        run_list = self._run_list
        overflow = self._overflow
        cancelled = self._cancelled
        while run_list or overflow:
            if run_list and not (overflow and overflow[0] < run_list[-1]):
                entry = run_list.pop()
            else:
                entry = heapq.heappop(overflow)
            if cancelled and entry[2] in cancelled:
                cancelled.discard(entry[2])
                continue
            time = entry[0]
            if time < self._now:
                raise SimulationError(
                    f"event at {time} popped after clock reached {self._now}"
                )
            self._now = time
            if len(entry) == 5:
                entry[4]._fired = True
            self._processed += 1
            entry[3](time)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until events drain, ``until`` is reached, or budget ends.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        A horizon below the already-advanced clock never moves time
        backwards; the clock clamps at its current value.
        """
        if self._running:
            raise SimulationError("engine is already running (reentrant run())")
        self._running = True
        try:
            self._merge_staged()
            if until is None and max_events is None:
                self._run_fast()
            else:
                self._run_general(until, max_events)
        finally:
            self._running = False

    def _run_fast(self) -> None:
        # The engine's hottest loop: everything bound to locals, one
        # attribute store for the clock and one for the processed count
        # per event (callbacks may read both mid-run).
        run_list = self._run_list
        overflow = self._overflow
        cancelled = self._cancelled
        heappop = heapq.heappop
        while run_list or overflow:
            if run_list and not (overflow and overflow[0] < run_list[-1]):
                entry = run_list.pop()
            else:
                entry = heappop(overflow)
            if cancelled and entry[2] in cancelled:
                cancelled.discard(entry[2])
                continue
            self._now = entry[0]
            if len(entry) == 5:
                entry[4]._fired = True
            self._processed += 1
            entry[3](entry[0])

    def _run_general(
        self, until: Optional[float], max_events: Optional[int]
    ) -> None:
        run_list = self._run_list
        overflow = self._overflow
        cancelled = self._cancelled
        heappop = heapq.heappop
        heappush = heapq.heappush
        executed = 0
        while run_list or overflow:
            if max_events is not None and executed >= max_events:
                return
            if run_list and not (overflow and overflow[0] < run_list[-1]):
                entry = run_list.pop()
                from_run_list = True
            else:
                entry = heappop(overflow)
                from_run_list = False
            if cancelled and entry[2] in cancelled:
                # Drop cancelled noise without running horizon checks.
                cancelled.discard(entry[2])
                continue
            time = entry[0]
            if until is not None and time > until:
                # Beyond the horizon: restore the entry and clamp.
                if from_run_list:
                    run_list.append(entry)
                else:
                    heappush(overflow, entry)
                if until > self._now:
                    self._now = until
                return
            if time < self._now:
                raise SimulationError(
                    f"event at {time} popped after clock reached {self._now}"
                )
            self._now = time
            if len(entry) == 5:
                entry[4]._fired = True
            self._processed += 1
            entry[3](time)
            executed += 1

    def credit_events(self, count: int) -> None:
        """Account ``count`` events as scheduled-and-executed in bulk.

        The macro-event replay cache (:mod:`repro.sim.replay`) applies a
        memoized execution segment as one batched operation instead of
        dispatching its interior events; this keeps ``processed`` (and
        the derived ``pending``) exactly what a live dispatch of those
        events would have left behind. Both ``_seq`` and ``_processed``
        advance together, so later seq assignments — and therefore
        same-instant tie-breaking of post-segment events — match the
        live run number-for-number.
        """
        if count < 0:
            raise SimulationError(f"cannot credit {count} events")
        self._seq += count
        self._processed += count

    def peek_next_time(self) -> Optional[float]:
        """Earliest pending entry's time, or None with nothing pending.

        Cancelled-but-unpopped entries still count (their time is a
        lower bound on the next live event), so the answer is
        conservative — callers using it as a clear-horizon check may
        get a false "busy", never a false "clear".
        """
        best: Optional[float] = None
        staged = self._staged
        if staged:
            best = min(entry[0] for entry in staged)
        run_list = self._run_list
        if run_list:
            time = run_list[-1][0]
            if best is None or time < best:
                best = time
        overflow = self._overflow
        if overflow:
            time = overflow[0][0]
            if best is None or time < best:
                best = time
        return best

    def drain(self) -> None:
        """Discard all pending events (used by tests)."""
        for entries in (self._staged, self._run_list, self._overflow):
            for entry in entries:
                if len(entry) == 5:
                    entry[4]._fired = True
            entries.clear()
        self._cancelled.clear()
        # Everything ever scheduled is now fired or discarded.
        self._cancel_count = self._seq - self._processed
