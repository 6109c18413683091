"""Steady-state macro-event replay: memoized execution segments.

Sustained low-rate service runs spend most of their engine events inside
*isolated* application executions: the board is empty, one request
arrives, runs its task graph to retirement, and the board drains again
before the next arrival. Every such execution of the same
``(graph, batch_size, priority)`` request against the same quiescent
board is event-for-event identical up to time translation — the
simulator recomputes the identical cascade of configure / launch /
item-done / tick / pass events thousands of times.

:class:`ReplayCache` breaks that per-event dispatch wall. On the first
qualifying arrival of a request shape it *records* the execution once in
a scratch hypervisor built around a :class:`_RecordingEngine` that
logs, for every scheduled event, its **parent event and relative
delay**. On later qualifying arrivals it *applies* the memoized segment
as one batched operation:

* the arrival prelude runs live (bitstream registration, latency
  estimate, :class:`~repro.hypervisor.application.AppRun` construction,
  pending-queue insert, ``APP_ARRIVED`` trace row, scheduler arrival
  notification) — the hypervisor's own ``_arrive``, as on the live path;
* the interior trace rows reach the trace in one call
  (:meth:`~repro.sim.trace.Trace.record_segment`) with absolute times
  reconstructed through the recorded parent/delay chains — the same
  float additions (``parent_fire_time + delay``) the live engine would
  perform, so every timestamp is **bit-identical** to live execution.
  A full-mode trace appends the rows in bulk; a metrics-mode trace
  builds no rows at all and folds the segment's
  :class:`~repro.sim.fold.FoldPlan`, its intervals paired once at
  record time;
* engine event counts, scheduler passes, reconfiguration-port counters
  and buffer-manager counters are credited in bulk with the same
  float-addition order the live run uses;
* retirement is **deferred**: one real engine event at the recorded
  retirement instant calls the hypervisor's own ``_retire``, so the
  pending queue, retire listeners, completion notification and the
  ``APP_RETIRED`` row all happen live at the exact live time. Between
  arrival and retirement the application is visibly *in the system*
  (pending depth 1, non-quiescent), so any window close that fires
  mid-segment observes live-identical state.

The scratch world mirrors the live board: its config and buffer sizes,
a scheduler the registry builds under the live policy's name, and fresh
copies of the live admission controller (policy and seed) and watchdog
(config). :meth:`ReplayCache.attach` decides once whether the board can
ever be mirrored (:func:`_mirrorable`: no faults or observer, exact
types, exact estimates, free data movement); a board that cannot counts
every arrival as a miss. Otherwise replay engages only when the context
is provably reproducible. The gate requires an empty board (no pending
apps, no in-flight items, idle reconfiguration port, all slots free and
healthy), no scheduled tick or pass, a quiet watchdog (no stall streak,
no progress entries), a non-overloaded admission controller, and a
strictly later next arrival (so no foreign event interleaves with the
segment's span). The recording itself is ground truth for anything the
gate cannot see: a scratch run that sheds, rejects, overloads, stalls,
faults, cancels an event or fails to retire exactly once marks the
shape *non-replayable* (negative cache) and every future arrival of
that shape takes the live path. Fallback is always the live simulation
— replay never guesses.

A segment depends only on the request shape and on the board world it
was recorded in (:func:`_world_key`), so caches of one world may share
their shape -> segment map. The cluster does so for the boards of one
run (:func:`~repro.cluster.shard.board_cells`); no map outlives its
run.

Correctness contract: a run with replay enabled is **byte-identical**
(trace rows, report payloads, window aggregates, engine event totals)
to the same run with replay disabled. ``tests/test_replay.py`` pins
this across every registered scheduler.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hypervisor.application import AppRequest
from repro.sim.engine import SimulationEngine
from repro.sim.fold import FoldPlan, compile_plan
from repro.sim.trace import Trace, TraceKind

#: Trace kinds whose presence in a recording proves the segment is not a
#: clean isolated execution (overload protection, watchdog intervention
#: or fault machinery engaged — all carry absolute-time-dependent or
#: cross-arrival state).
_NON_REPLAYABLE_KINDS = frozenset({
    TraceKind.APP_REJECTED,
    TraceKind.APP_SHED,
    TraceKind.OVERLOAD_ENTER,
    TraceKind.OVERLOAD_EXIT,
    TraceKind.WATCHDOG_STALL,
    TraceKind.WATCHDOG_KICK,
    TraceKind.SLOT_FAULT,
    TraceKind.SLOT_REPAIRED,
    TraceKind.CONFIG_FAILED,
    TraceKind.TASK_RELOCATED,
})

#: Engine priority of the deferred retirement event: the live path
#: retires inside the final item-completion event, which is scheduled
#: at priority −2 (see ``Hypervisor._launch_ready_items``).
_RETIRE_PRIORITY = -2


def _noop_event(now: float) -> None:
    """The applied segment's end marker (a live trailing tick is a no-op)."""


class _RecordingEngine(SimulationEngine):
    """Engine that logs the parent/delay lineage of every event.

    Each scheduled event gets an *ordinal* (its scheduling order). The
    log keeps, per ordinal, the ordinal of the event whose callback
    scheduled it plus the relative delay, so absolute fire times can be
    reconstructed later for any segment start ``T`` with exactly the
    float additions the live engine performs (``schedule_delay``
    computes ``parent_fire_time + delay``; so does the reconstruction).
    """

    def __init__(self) -> None:
        super().__init__()
        self.parents: List[int] = []
        self.delays: List[float] = []
        self.priorities: List[int] = []
        self.fire_order: List[int] = []
        #: Ordinal of the event currently firing (−1 before the run).
        self.current = -1
        #: Set when the run used a scheduling pattern replay cannot
        #: reproduce (absolute-time schedule mid-run, handle API).
        self.invalid = False

    def _wrap(self, ordinal: int, callback):
        def fire(now: float, _ordinal=ordinal, _callback=callback) -> None:
            self.current = _ordinal
            self.fire_order.append(_ordinal)
            _callback(now)
        return fire

    def schedule(self, time, callback, priority=0):
        # Only the t=0 arrival submission may use absolute scheduling;
        # anything else has no parent to anchor its reconstruction.
        if self._running or self.parents or time != 0.0:
            self.invalid = True
        ordinal = len(self.parents)
        self.parents.append(-1)
        self.delays.append(time)
        self.priorities.append(priority)
        return super().schedule(time, self._wrap(ordinal, callback), priority)

    def schedule_delay(self, delay, callback, priority=0):
        ordinal = len(self.parents)
        self.parents.append(self.current)
        self.delays.append(delay)
        self.priorities.append(priority)
        return super().schedule_delay(
            delay, self._wrap(ordinal, callback), priority
        )

    def schedule_at(self, time, callback, priority=0):
        self.invalid = True
        return super().schedule_at(time, callback, priority)

    def schedule_after(self, delay, callback, priority=0):
        self.invalid = True
        return super().schedule_after(delay, callback, priority)


class _RecordingTrace(Trace):
    """Trace that logs each row with the ordinal of its emitting event."""

    def __init__(self, engine: _RecordingEngine) -> None:
        super().__init__()
        self._engine = engine
        #: (ordinal, kind, has_app_id, task_id, slot, detail) per row.
        self.log: List[tuple] = []
        #: False if any row's time differed from the engine clock (a
        #: backdated record could not be reconstructed from fire times).
        self.valid_times = True

    def record(self, time, kind, app_id=None, task_id=None, slot=None,
               detail=None):
        engine = self._engine
        if time != engine._now:
            self.valid_times = False
        self.log.append(
            (engine.current, kind, app_id is not None, task_id, slot, detail)
        )
        super().record(time, kind, app_id, task_id, slot, detail)


class Segment:
    """One memoized execution: event lineage, trace rows, counter bulk."""

    __slots__ = (
        "parents", "delays", "records", "retire_ordinal", "end_ordinal",
        "end_priority", "credit_ordinals", "event_count", "passes",
        "reconfig_durations", "buffer_publishes", "peak_bytes",
        "started_ordinal", "last_item_ordinal", "task_finals", "plan",
    )

    def __init__(
        self,
        parents: Tuple[int, ...],
        delays: Tuple[float, ...],
        records: Tuple[tuple, ...],
        retire_ordinal: int,
        end_ordinal: int,
        end_priority: int,
        credit_ordinals: Tuple[int, ...],
        event_count: int,
        passes: int,
        reconfig_durations: Tuple[float, ...],
        buffer_publishes: int,
        peak_bytes: int,
        started_ordinal: int,
        last_item_ordinal: int,
        task_finals: Tuple[tuple, ...],
    ) -> None:
        self.parents = parents
        self.delays = delays
        #: Interior trace rows (everything between APP_ARRIVED and
        #: APP_RETIRED, both exclusive — those two are emitted live).
        self.records = records
        self.retire_ordinal = retire_ordinal
        #: Last event to fire (the trailing tick or final pass). Applied
        #: as a real no-op event so the engine clock visits the same
        #: final instant a live run would (``span_ms`` fidelity) and so
        #: an end-of-stream drain terminates at the live time.
        self.end_ordinal = end_ordinal
        self.end_priority = end_priority
        #: Fired ordinals credited in bulk (all but the live arrival,
        #: the deferred retirement and the end marker), in fire order.
        self.credit_ordinals = credit_ordinals
        self.event_count = event_count
        self.passes = passes
        self.reconfig_durations = reconfig_durations
        self.buffer_publishes = buffer_publishes
        self.peak_bytes = peak_bytes
        #: Ordinal of the event that recorded APP_STARTED (stamps
        #: ``first_item_start_ms``) and of the last ITEM_DONE row
        #: (stamps ``last_item_done_ms``).
        self.started_ordinal = started_ordinal
        self.last_item_ordinal = last_item_ordinal
        #: Final per-task state, copied verbatim from the scratch app so
        #: :meth:`Hypervisor.results` sees live-identical task records:
        #: (task_id, items_done, configure_count, preemption_count,
        #: state, slot_index, was_detached, relocated_from,
        #: producer_slots).
        self.task_finals = task_finals
        #: The interior rows paired once, timed by event ordinal: what a
        #: metrics-mode trace folds on a hit instead of the rows. None
        #: when a plan cannot carry their effect (see ``compile_plan``).
        self.plan: Optional[FoldPlan] = compile_plan(
            self.rows(range(len(parents)), 0)
        )

    def rows(self, times, app_id: int) -> List[tuple]:
        """The interior trace rows of ``app_id``, events firing at
        ``times``."""
        return [
            (
                times[ordinal], kind,
                app_id if has_app else None,
                task_id, slot, detail,
            )
            for ordinal, kind, has_app, task_id, slot, detail
            in self.records
        ]

    def absolute_times(self, start: float) -> List[float]:
        """Fire time per ordinal for a segment starting at ``start``.

        Each time is ``parent_fire_time + delay`` — the identical float
        expression the live engine evaluates — so reconstructed times
        are bit-equal to a live execution beginning at ``start``.
        """
        parents = self.parents
        delays = self.delays
        times = [start] * len(parents)
        for ordinal in range(1, len(parents)):
            times[ordinal] = times[parents[ordinal]] + delays[ordinal]
        return times


def _world_key(hv) -> tuple:
    """Everything :meth:`ReplayCache._record` reads off the board."""
    admission = hv.admission
    watchdog = hv.watchdog
    return (
        hv.config, hv.scheduler.name, hv.buffers._capacity,
        hv.item_buffer_bytes,
        None if admission is None else (admission.policy, admission.seed),
        None if watchdog is None else watchdog.config,
    )


def _mirrorable(hv) -> bool:
    """True when a scratch world can reproduce the board exactly; every
    condition is fixed once the hypervisor is built."""
    from repro.admission.controller import AdmissionController
    from repro.admission.watchdog import Watchdog
    from repro.schedulers.registry import scheduler_factories

    factory = scheduler_factories().get(hv.scheduler.name)
    return (
        factory is not None
        and type(factory()) is type(hv.scheduler)
        and (hv.admission is None
             or type(hv.admission) is AdmissionController)
        and (hv.watchdog is None or type(hv.watchdog) is Watchdog)
        and hv.faults is None
        and hv.observer is None
        and not hv._model_bitstream_loads
        and hv._zero_cost_interconnect
        and hv.config.hls_estimation_error == 0
    )


class ReplayCache:
    """Memoized per-request-shape execution segments for a hypervisor.

    Attach with ``Hypervisor(..., replay=ReplayCache())``; the hypervisor
    consults :meth:`try_replay` on each admitted arrival and falls
    through to live simulation whenever it returns False.

    ``next_arrival_ms`` supplies the next arrival instant for the gap
    check: a callable returning None (no future arrival), the arrival
    time in ms, or any negative value ("unknown" — blocks replay). When
    omitted, the engine's own pending-event horizon is used, which is
    exact for closed runs that pre-submit every arrival.

    ``on_credit`` (optional) receives the absolute fire times of every
    bulk-credited engine event, in fire order — the service loop uses
    it to attribute events to metric windows exactly.

    ``worlds`` (optional) maps a board world (:func:`_world_key`) to the
    shape -> segment map its caches share, so each shape is recorded once
    per world; :meth:`attach` picks the map. By default the cache keeps
    its own.
    """

    def __init__(
        self,
        *,
        next_arrival_ms: Optional[Callable[[], Optional[float]]] = None,
        on_credit: Optional[Callable[[List[float]], None]] = None,
        worlds: Optional[Dict[tuple, dict]] = None,
    ) -> None:
        self._hv = None
        self._next_arrival_ms = next_arrival_ms
        self._on_credit = on_credit
        self._worlds = worlds
        #: (graph id, batch, priority) -> (graph ref, Segment | None).
        #: The strong graph reference keeps the id stable; None marks a
        #: shape proven non-replayable (negative cache).
        self._segments: Dict[tuple, tuple] = {}
        #: False when the board can never replay (see :func:`_mirrorable`).
        self._mirrorable = False
        self.hits = 0
        self.misses = 0
        self.recordings = 0

    def attach(self, hypervisor) -> None:
        """Bind to one hypervisor (called from ``Hypervisor.__init__``
        after every other hook is bound)."""
        if self._hv is not None:
            raise SimulationError(
                "replay cache is already attached to a hypervisor"
            )
        self._hv = hypervisor
        self._mirrorable = _mirrorable(hypervisor)
        if self._mirrorable and self._worlds is not None:
            self._segments = self._worlds.setdefault(
                _world_key(hypervisor), {}
            )

    # ------------------------------------------------------------------
    # Gate
    # ------------------------------------------------------------------
    def _context_replayable(self) -> bool:
        """True when the board state is provably reproducible."""
        hv = self._hv
        if len(hv.pending) or hv.shed or hv._item_events:
            return False
        if hv._tick_scheduled or hv._pass_pending:
            return False
        port = hv._port
        if port._active is not None or port._queue:
            return False
        device = hv.device
        if len(device.free_slots()) != device.num_slots:
            return False
        watchdog = hv.watchdog
        if watchdog is not None and (
            watchdog._stalled_passes or watchdog._app_progress
        ):
            return False
        admission = hv.admission
        if admission is not None and admission._overload_since is not None:
            return False
        return True

    def _gap_clear(self, end_ms: float) -> bool:
        """True when no foreign event can fire before ``end_ms``.

        Window closes (and the feeder pump riding the next arrival) are
        the only loop events that may interleave; closes observe
        live-identical state mid-segment, and everything else is pinned
        strictly after the segment by this check.
        """
        if self._next_arrival_ms is not None:
            nxt = self._next_arrival_ms()
            return nxt is None or nxt > end_ms
        nxt = self._hv.engine.peek_next_time()
        if nxt is None:
            return True
        # The engine horizon includes the loop's own close chain; a
        # close inside the segment is harmless, but distinguishing it
        # from a foreign event is the attach site's job (next_arrival_ms
        # hook). Without the hook, demand a fully clear horizon.
        return nxt > end_ms

    # ------------------------------------------------------------------
    # Entry point (called by Hypervisor._on_arrival)
    # ------------------------------------------------------------------
    def try_replay(self, now: float, app_id: int, request) -> bool:
        """Apply a memoized segment for this arrival; False → live path."""
        if not self._mirrorable or not self._context_replayable():
            self.misses += 1
            return False
        key = (id(request.graph), request.batch_size, request.priority)
        entry = self._segments.get(key)
        if entry is None:
            segment = self._record(request)
            self._segments[key] = (request.graph, segment)
        else:
            segment = entry[1]
        if segment is None:
            self.misses += 1
            return False
        times = segment.absolute_times(now)
        if not self._gap_clear(times[segment.end_ordinal]):
            self.misses += 1
            return False
        self._apply(now, app_id, request, segment, times)
        self.hits += 1
        return True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, request) -> Optional[Segment]:
        """Run the request in a scratch world; memoize its event lineage.

        Returns None (negative cache) when the execution is not a clean
        isolated run — the recording itself is the proof either way.
        """
        from repro.admission.controller import AdmissionController
        from repro.admission.watchdog import Watchdog
        from repro.hypervisor.hypervisor import Hypervisor
        from repro.schedulers.registry import make_scheduler

        self.recordings += 1
        hv = self._hv
        admission = hv.admission
        watchdog = hv.watchdog
        engine = _RecordingEngine()
        # Not run_closed: a recording world with its trace and port swapped.
        scratch = Hypervisor(
            scheduler=make_scheduler(hv.scheduler.name),
            config=hv.config,
            engine=engine,
            buffer_capacity_bytes=hv.buffers._capacity,
            item_buffer_bytes=hv.item_buffer_bytes,
            admission=(
                None if admission is None
                else AdmissionController(admission.policy, seed=admission.seed)
            ),
            watchdog=None if watchdog is None else Watchdog(watchdog.config),
            mode="full",
        )
        trace = _RecordingTrace(engine)
        scratch.trace = trace
        port = scratch.device.port
        durations: List[float] = []
        port_request = port.request

        def logging_request(slot, duration_ms, on_done):
            # The CAP pumps FIFO, so call order is busy-accrual order.
            durations.append(duration_ms)
            port_request(slot, duration_ms, on_done)

        port.request = logging_request
        scratch.submit(AppRequest(
            name=request.name,
            graph=request.graph,
            batch_size=request.batch_size,
            priority=request.priority,
            arrival_ms=0.0,
        ))
        engine.run()

        event_count = len(engine.parents)
        rows = trace.log
        if (
            engine.invalid
            or not trace.valid_times
            or engine._cancel_count
            or engine._seq != event_count
            or engine._processed != event_count
            or len(engine.fire_order) != event_count
            or len(scratch.retired) != 1
            or scratch.shed
            or len(scratch.pending)
            or scratch._item_events
            or scratch._tick_scheduled
            or scratch._pass_pending
            or port._active is not None
            or port._queue
            or scratch.buffers._used != 0
            or len(scratch.device.free_slots()) != scratch.device.num_slots
            or not rows
            or rows[0][1] is not TraceKind.APP_ARRIVED
            or rows[-1][1] is not TraceKind.APP_RETIRED
        ):
            return None
        if any(row[1] in _NON_REPLAYABLE_KINDS for row in rows):
            return None
        started_ordinal = -1
        last_item_ordinal = -1
        for row in rows:
            kind = row[1]
            if kind is TraceKind.APP_STARTED and started_ordinal < 0:
                started_ordinal = row[0]
            elif kind is TraceKind.ITEM_DONE:
                last_item_ordinal = row[0]
        if started_ordinal < 0 or last_item_ordinal < 0:
            return None
        retire_ordinal = rows[-1][0]
        end_ordinal = engine.fire_order[-1]
        if (
            engine.fire_order[0] != 0
            or retire_ordinal == 0
            or retire_ordinal == end_ordinal
            or engine.priorities[retire_ordinal] != _RETIRE_PRIORITY
        ):
            return None
        segment = Segment(
            parents=tuple(engine.parents),
            delays=tuple(engine.delays),
            records=tuple(rows[1:-1]),
            retire_ordinal=retire_ordinal,
            end_ordinal=end_ordinal,
            end_priority=engine.priorities[end_ordinal],
            credit_ordinals=tuple(
                ordinal for ordinal in engine.fire_order
                if ordinal != 0 and ordinal != retire_ordinal
                and ordinal != end_ordinal
            ),
            event_count=event_count,
            passes=scratch.scheduler_passes,
            reconfig_durations=tuple(durations),
            buffer_publishes=scratch.buffers._next_id,
            peak_bytes=scratch.buffers.peak_bytes,
            started_ordinal=started_ordinal,
            last_item_ordinal=last_item_ordinal,
            task_finals=tuple(
                (
                    task_id, run.items_done, run.configure_count,
                    run.preemption_count, run.state, run.slot_index,
                    run.was_detached, run.relocated_from,
                    tuple(run.producer_slots),
                )
                for task_id, run in scratch.retired[0].tasks.items()
            ),
        )
        return segment if segment.plan is not None else None

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------
    def _apply(
        self, now: float, app_id: int, request,
        segment: Segment, times: List[float],
    ) -> None:
        hv = self._hv
        # -- live arrival prelude (the live path's own code) ------------
        app = hv._arrive(now, app_id, request)

        # -- memoized final state ---------------------------------------
        # Everything the segment's events would have written onto the
        # app, so post-run readers (``Hypervisor.results``, the cluster
        # worker) see live-identical records. Timestamps come from the
        # reconstructed fire times of the exact events that stamp them
        # live; ``reconfig_busy_ms`` repeats the live per-configure
        # additions in order for bit-equal float accumulation. Nothing
        # that fires mid-segment (window closes only) reads these
        # fields, so writing them at arrival time is unobservable.
        app.first_item_start_ms = times[segment.started_ordinal]
        hv.pending.mark_started(app_id)
        app.last_item_done_ms = times[segment.last_item_ordinal]
        for duration in segment.reconfig_durations:
            app.reconfig_busy_ms += duration
        for (task_id, items, configures, preemptions, state, slot_index,
             was_detached, relocated_from, producers) in segment.task_finals:
            run = app.tasks[task_id]
            run.items_done = items
            run.configure_count = configures
            run.preemption_count = preemptions
            run.state = state
            run.slot_index = slot_index
            run.was_detached = was_detached
            run.relocated_from = relocated_from
            run.producer_slots = list(producers)

        # -- bulk trace application -------------------------------------
        hv.trace.record_segment(segment, times, app_id)

        # -- bulk counter credits (live addition order preserved) -------
        hv.scheduler_passes += segment.passes
        port = hv._port
        port.total_reconfigs += len(segment.reconfig_durations)
        for duration in segment.reconfig_durations:
            port.busy_ms += duration
        buffers = hv.buffers
        buffers._next_id += segment.buffer_publishes
        if segment.peak_bytes > buffers.peak_bytes:
            buffers.peak_bytes = segment.peak_bytes
        hv.engine.credit_events(segment.event_count - 3)
        if self._on_credit is not None:
            self._on_credit(
                [times[ordinal] for ordinal in segment.credit_ordinals]
            )

        # -- the two real interior events -------------------------------
        # Deferred retirement: the hypervisor's own retire runs at the
        # recorded instant, so queue state, listeners and the APP_RETIRED
        # row are live. The end marker replays the segment's final event
        # (the trailing tick / final pass, a no-op on an empty board) so
        # the engine clock — and with it span_ms and end-of-run drains —
        # visits the exact instant a live execution would end on.
        hv.engine.schedule(
            times[segment.retire_ordinal],
            lambda done_now, _app=app: hv._retire(_app, done_now),
            _RETIRE_PRIORITY,
        )
        hv.engine.schedule(
            times[segment.end_ordinal],
            _noop_event,
            segment.end_priority,
        )
