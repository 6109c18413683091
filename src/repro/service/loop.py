"""The open-loop online service loop: incremental feeding, O(1) state.

Closed experiments materialize a finite
:class:`~repro.workload.events.EventSequence`, submit every event up
front and keep every retired :class:`~repro.hypervisor.application.AppRun`
plus the full trace until the run ends. :class:`ServiceLoop` is the
sustained-load counterpart: it drives the *unmodified*
:class:`~repro.hypervisor.hypervisor.Hypervisor` (admission controller
and watchdog included) from a lazy
:class:`~repro.workload.arrivals.ArrivalProcess`, holding memory O(1) in
the submission count:

* **one-ahead feeding** — exactly one arrival is submitted beyond the
  simulation clock; a feeder event at that arrival's instant pulls the
  next one, so the engine heap never holds more than one future arrival;
* **state discard** — a retire listener folds each completed app's
  response into the windowed metrics and immediately deletes the app
  from the hypervisor's ``retired``/``apps`` books; shed apps are
  drained the same way at window boundaries (``all_retired`` stays
  consistent because both sides of its ledger shrink together);
* **rowless trace** — the hypervisor runs in metrics mode whatever
  ``mode`` the loop was given, so its
  :class:`~repro.sim.trace.MetricsTrace` keeps exact lifetime counters
  and a live interval fold (what watchdog, admission and
  :func:`~repro.observe.snapshot_run` read) and stores no rows;
* **window closes** — a self-perpetuating engine event at each window
  boundary (priority −100, ahead of every same-instant arrival or
  completion) folds admission/engine deltas into the window that just
  ended, making window attribution exact for half-open windows;
* **snapshots** — at every ``snapshot_every_windows``-th boundary where
  the board is quiescent, a JSON-serializable checkpoint is captured
  (see :mod:`repro.service.snapshot`); :meth:`ServiceLoop.resume`
  continues a run from one with metrics byte-identical to an
  uninterrupted run.

Determinism: the loop adds no randomness of its own — same process, same
seed, same knobs give the identical :class:`ServiceReport`, and report
payloads merge associatively across shards (``--jobs N``).
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

from repro.admission.controller import AdmissionController
from repro.admission.watchdog import Watchdog
from repro.config import SystemConfig
from repro.errors import ServiceError
from repro.modes import normalize_mode
from repro.schedulers.registry import make_scheduler
from repro.service.sketch import DEFAULT_ALPHA
from repro.service.windows import (
    DEFAULT_WINDOW_MS,
    WindowedMetrics,
    WindowStats,
)
from repro.workload.arrivals import ArrivalProcess
from repro.workload.events import EventSpec

#: Engine priority of the window-close event: fires before every
#: same-instant feeder (−6), arrival (−5) or completion (−2), so a close
#: at boundary T folds exactly the half-open window [T − W, T).
_CLOSE_PRIORITY = -100

#: Engine priority of the feeder pump: just ahead of the arrival event
#: it co-times with, so the next submission exists before the board
#: reacts to the current one.
_PUMP_PRIORITY = -6


@dataclass(frozen=True)
class ServiceReport:
    """One finished (or resumed-and-finished) service run.

    Every field except ``wall_s`` is a pure function of the run's seeded
    inputs; :meth:`to_dict` exposes exactly that deterministic subset,
    which is what the ``--jobs N`` byte-identity CI diff compares.
    """

    scheduler: str
    admission: str
    arrivals: str
    window_ms: float
    alpha: float
    #: Arrivals consumed from the stream (includes one possibly
    #: in-flight tail arrival that never reached its arrival instant).
    submitted: int
    arrived: int
    completed: int
    shed: int
    dropped: int
    rejections: int
    windows_closed: int
    span_ms: float
    engine_events: int
    resumed_from_ms: float
    windows: WindowedMetrics
    snapshots: List[dict] = field(default_factory=list)
    wall_s: float = 0.0
    #: Macro-event replay cache counters. Excluded from :meth:`to_dict`
    #: like ``wall_s``: replay is a pure execution strategy, so
    #: the deterministic payload must not depend on whether (or how
    #: often) it engaged — that independence is what the replay A/B CI
    #: diff asserts.
    replay_hits: int = 0
    replay_misses: int = 0
    #: True when a closed-loop autotuner was armed for the run. The
    #: decision log joins :meth:`to_dict` only then, so un-tuned
    #: payloads (and their golden pins) are byte-for-byte unchanged.
    autotuned: bool = False
    #: Frozen remediation decision records, in window order.
    decisions: List[dict] = field(default_factory=list)

    # -- derived --------------------------------------------------------
    def totals(self) -> WindowStats:
        """Run-total window aggregate."""
        return self.windows.total()

    @property
    def loss_frac(self) -> float:
        """Lifetime (shed + dropped) / arrived fraction."""
        if self.arrived == 0:
            return 0.0
        return (self.shed + self.dropped) / self.arrived

    def p(self, pct: float) -> float:
        """Lifetime response percentile (sketch estimate)."""
        return self.totals().sketch.percentile(pct)

    def slo_attainment(self, target) -> float:
        """See :meth:`WindowedMetrics.slo_attainment`."""
        return self.windows.slo_attainment(target)

    # -- serialization and rendering ------------------------------------
    @property
    def applies(self) -> int:
        """Remediation patches actually applied during the run."""
        return sum(1 for d in self.decisions if d.get("applied"))

    def to_dict(self) -> dict:
        """The deterministic payload (no wall-clock, no snapshots)."""
        payload = self._base_dict()
        if self.autotuned:
            payload["decisions"] = self.decisions
            payload["applies"] = self.applies
        return payload

    def _base_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "admission": self.admission,
            "arrivals": self.arrivals,
            "window_ms": self.window_ms,
            "alpha": self.alpha,
            "submitted": self.submitted,
            "arrived": self.arrived,
            "completed": self.completed,
            "shed": self.shed,
            "dropped": self.dropped,
            "rejections": self.rejections,
            "windows_closed": self.windows_closed,
            "span_ms": self.span_ms,
            "engine_events": self.engine_events,
            "resumed_from_ms": self.resumed_from_ms,
            "snapshot_count": len(self.snapshots),
            "windows": self.windows.to_dict(),
        }

    def format(self, window_rows: int = 12) -> str:
        """Deterministic multi-line rendering (window table + totals)."""
        return format_report(self.to_dict(), window_rows=window_rows)


def format_report(payload: dict, window_rows: int = 12) -> str:
    """Render a :meth:`ServiceReport.to_dict` payload as text.

    Operates on the serialized payload so gathered ``--jobs N`` worker
    results render without reconstructing report objects — the rendering
    is part of the byte-identity surface.
    """
    windows = WindowedMetrics.from_dict(payload["windows"])
    total = windows.total()
    sketch = total.sketch
    lines = [
        f"service run: scheduler={payload['scheduler']} "
        f"admission={payload['admission']} arrivals={payload['arrivals']}",
        f"  windows: {payload['windows_closed']} closed x "
        f"{payload['window_ms'] / 1000.0:g}s "
        f"({len(windows)} non-empty), span {payload['span_ms'] / 1000.0:.1f}s"
        + (
            f", resumed at {payload['resumed_from_ms'] / 1000.0:.1f}s"
            if payload["resumed_from_ms"] else ""
        ),
        f"  arrivals: {payload['arrived']} arrived "
        f"({payload['submitted']} submitted), "
        f"{payload['completed']} completed, {payload['shed']} shed, "
        f"{payload['dropped']} dropped, "
        f"{payload['rejections']} rejections",
        f"  responses: p50={_ms(sketch.percentile(50.0))} "
        f"p95={_ms(sketch.percentile(95.0))} "
        f"p99={_ms(sketch.percentile(99.0))} mean={_ms(sketch.mean)} "
        f"(sketch alpha={payload['alpha']:g})",
        f"  engine: {payload['engine_events']} events, "
        f"peak pending depth {total.peak_pending}",
    ]
    table = windows.format_table(limit=window_rows)
    lines.extend("  " + line for line in table.splitlines())
    if "decisions" in payload:
        lines.append(
            f"  autotune: {len(payload['decisions'])} decisions, "
            f"{payload['applies']} applied"
        )
        for decision in payload["decisions"]:
            kinds = ",".join(
                s["kind"] for s in decision["symptoms"]
            ) or "-"
            applied = decision.get("applied") or "none"
            lines.append(
                f"    window {decision['window']}: [{kinds}] "
                f"-> applied={applied} "
                f"({len(decision.get('candidates', []))} candidates)"
            )
    return "\n".join(lines)


def summarize_report(payload: dict, slo) -> dict:
    """A :meth:`ServiceReport.to_dict` payload reduced to its SLO scalars
    against ``slo`` (a :class:`~repro.metrics.slo.SloTarget`)."""
    windows = WindowedMetrics.from_dict(payload["windows"])
    arrived = payload["arrived"]
    lost = payload["shed"] + payload["dropped"]
    summary = {
        "attainment": windows.slo_attainment(slo),
        "p99_ms": windows.total().sketch.percentile(99.0),
        "loss_frac": (lost / arrived) if arrived else 0.0,
        "arrived": arrived,
        "completed": payload["completed"],
        "shed": payload["shed"],
        "dropped": payload["dropped"],
        "windows": sum(w.arrived > 0 for w in windows.windows),
    }
    if "applies" in payload:
        summary["applies"] = payload["applies"]
        summary["decisions"] = payload["decisions"]
    return summary


def _ms(value: float) -> str:
    if value != value:  # NaN — nothing completed
        return "-"
    return f"{value:.0f}ms"


class ServiceLoop:
    """Drive one hypervisor from an open-loop arrival process.

    A loop instance runs exactly once (:meth:`run`); resuming from a
    snapshot builds a *new* loop via :meth:`resume`. See the module
    docstring for the O(1)-memory mechanics. ``mode`` is validated and
    ignored: the hypervisor always runs metrics mode (no trace rows).
    """

    def __init__(
        self,
        arrivals: ArrivalProcess,
        scheduler: str = "nimblock",
        *,
        max_submissions: int = 10_000,
        horizon_ms: Optional[float] = None,
        window_ms: float = DEFAULT_WINDOW_MS,
        alpha: float = DEFAULT_ALPHA,
        admission: str = "unbounded",
        admission_knobs: Optional[dict] = None,
        watchdog: Union[bool, Watchdog] = True,
        seed: int = 0,
        config: Optional[SystemConfig] = None,
        snapshot_every_windows: Optional[int] = None,
        observer: Optional[object] = None,
        mode: str = "full",
        replay: bool = True,
        autotune: Optional[object] = None,
        _resume_state: Optional[dict] = None,
    ) -> None:
        from repro.hypervisor.hypervisor import Hypervisor

        if max_submissions < 0:
            raise ServiceError(
                f"max_submissions must be >= 0, got {max_submissions}"
            )
        if snapshot_every_windows is not None and snapshot_every_windows < 1:
            raise ServiceError(
                "snapshot_every_windows must be >= 1, got "
                f"{snapshot_every_windows}"
            )
        if autotune is not None and snapshot_every_windows is not None:
            raise ServiceError(
                "autotune and periodic snapshots are mutually exclusive: "
                "a mid-run config patch cannot be captured by the "
                "snapshot/resume contract"
            )
        self.arrivals = arrivals
        self.scheduler_name = scheduler
        self.admission_name = admission
        #: Admission knob overrides, kept for the autotuner's baseline
        #: :class:`~repro.autotune.proposals.TunableConfig` capture.
        self.admission_knobs = dict(admission_knobs or {})
        # Validated only; kept because callers such as perfbench's
        # serve workload still pass it.
        normalize_mode(mode)
        self.seed = seed
        self.max_submissions = max_submissions
        self.horizon_ms = horizon_ms
        self.window_ms = float(window_ms)
        self.alpha = alpha
        self.snapshot_every_windows = snapshot_every_windows

        self.admission = AdmissionController(
            admission, seed=seed, **(admission_knobs or {})
        )
        if watchdog is True:
            watchdog = Watchdog()
        elif watchdog is False:
            watchdog = None

        # -- macro-event replay (repro.sim.replay) ----------------------
        # Absolute fire times of bulk-credited engine events not yet
        # folded into a window; sorted (credits arrive in fire order and
        # each segment is pinned strictly before the next arrival).
        self._replay_event_times: List[float] = []
        replay_cache = None
        if (
            replay
            # Snapshot runs count window boundaries and capture engine
            # state at quiescent closes; replay credits a segment's
            # trailing tick ahead of time, which could land in a
            # snapshot payload. Keep those runs on the live path.
            and snapshot_every_windows is None
            # The autotuner's detector reads watchdog detection
            # counters, which the replay byte-identity contract does
            # not cover (the mirror world accumulates them); an armed
            # autotuner therefore always runs live, making its decision
            # log trivially identical with replay on or off.
            and autotune is None
        ):
            from repro.sim.replay import ReplayCache

            replay_cache = ReplayCache(
                next_arrival_ms=self._replay_next_arrival,
                on_credit=self._replay_event_times.extend,
            )
        # Not run_closed: open-loop, never drains, takes Watchdog objects.
        self.hv = Hypervisor(
            scheduler=make_scheduler(scheduler),
            config=config,
            admission=self.admission,
            watchdog=watchdog,
            observer=observer,
            mode="metrics",
            replay=replay_cache,
        )
        self.hv.add_retire_listener(self._on_retire)
        self.engine = self.hv.engine

        # -- closed-loop remediation (repro.autotune) -------------------
        # Imported only when armed: a plain service run never pays for
        # (or even loads) the pipeline — bench_autotune --guard pins it.
        self._tuner = None
        if autotune is not None:
            from repro.autotune.engine import Autotuner

            self._tuner = Autotuner(self, autotune)

        # -- streaming state (possibly restored from a snapshot) --------
        state = _resume_state or {}
        #: Arrivals already consumed in previous run segments.
        self._skip = int(state.get("cursor", 0))
        self.windows = state.get("windows") or WindowedMetrics(
            window_ms=self.window_ms, alpha=alpha
        )
        self._windows_closed = int(state.get("windows_closed", 0))
        #: Index of the next window boundary to close.
        self._next_close_index = int(
            state.get("next_close_index", 0)
        )
        self.resumed_from_ms = float(state.get("clock_ms", 0.0))
        # Lifetime counters (continue across resumes).
        self._arrived = self._skip
        self._completed = int(state.get("completed", 0))
        self._shed_total = int(state.get("shed", 0))
        self._dropped_base = int(state.get("dropped", 0))
        self._rejections_base = int(state.get("rejections", 0))
        self._engine_events_base = int(state.get("engine_events", 0))

        self._stream: Optional[Iterator[EventSpec]] = None
        self._next_spec: Optional[EventSpec] = None
        self._consumed = self._skip
        self._stream_done = False
        # Per-run fold baselines against the (fresh) controller stats.
        self._folded_rejections = 0
        self._folded_dropped = 0
        self._folded_shed = 0
        self._folded_engine_events = 0
        self.snapshots: List[dict] = []
        self._started = False

    # ------------------------------------------------------------------
    # Feeding (one arrival ahead of the clock)
    # ------------------------------------------------------------------
    def _pump(self, now: float) -> None:
        # Drain sheds eagerly: window attribution comes from admission
        # stat deltas at closes, so the drain instant is free to pick —
        # and per-arrival keeps hv.shed/hv.apps O(1) between closes.
        self._drain_shed()
        spec = self._next_spec
        if spec is not None:
            # ``now`` is exactly this spec's arrival instant: count it.
            self._arrived += 1
            self.windows.observe_arrival(spec.arrival_ms)
            if self._tuner is not None:
                self._tuner.note_arrival(spec)
            self._next_spec = None
        if self._consumed >= self.max_submissions:
            self._stream_done = True
            return
        assert self._stream is not None
        nxt = next(self._stream, None)
        if nxt is None or (
            self.horizon_ms is not None and nxt.arrival_ms > self.horizon_ms
        ):
            self._stream_done = True
            return
        self._consumed += 1
        self._next_spec = nxt
        self.hv.submit(nxt.to_request())
        self.engine.schedule(nxt.arrival_ms, self._pump, _PUMP_PRIORITY)

    # ------------------------------------------------------------------
    # Replay support
    # ------------------------------------------------------------------
    def _replay_next_arrival(self) -> Optional[float]:
        """Next arrival instant for the replay gap check.

        Returns None once the stream is exhausted, the one-ahead spec's
        arrival time while feeding, and −1.0 ("unknown", blocks replay)
        whenever extra arrival events are in flight — e.g. a rejecting
        admission policy's backoff retries, whose instants the loop
        cannot see.
        """
        spec = self._next_spec
        if spec is None:
            if self.hv._arrivals_outstanding == 0:
                return None
            return -1.0
        if self.hv._arrivals_outstanding != 1:
            return -1.0
        return spec.arrival_ms

    @property
    def replay_hits(self) -> int:
        """Arrivals applied from the replay cache (0 when disabled)."""
        cache = self.hv.replay
        return 0 if cache is None else cache.hits

    @property
    def replay_misses(self) -> int:
        """Arrivals that took the live path past the replay gate."""
        cache = self.hv.replay
        return 0 if cache is None else cache.misses

    # ------------------------------------------------------------------
    # State discard
    # ------------------------------------------------------------------
    def _on_retire(self, app, now: float) -> None:
        self._completed += 1
        self.windows.observe_completion(now, now - app.arrival_ms)
        # Discard the completed app: pop it from both sides of the
        # ``all_retired`` ledger so the invariant keeps holding.
        hv = self.hv
        retired = hv.retired
        if retired and retired[-1] is app:
            retired.pop()
        else:  # pragma: no cover - listeners fire right after append
            retired.remove(app)
        hv.apps.pop(app.app_id, None)

    def _drain_shed(self) -> None:
        hv = self.hv
        if not hv.shed:
            return
        for app in hv.shed:
            hv.apps.pop(app.app_id, None)
        self._shed_total += len(hv.shed)
        hv.shed.clear()

    # ------------------------------------------------------------------
    # Window closes
    # ------------------------------------------------------------------
    def _fold_deltas(self, index: int, up_to: Optional[float] = None) -> None:
        """Attribute since-last-fold admission/engine deltas to a window.

        ``up_to`` is the closing boundary's instant: replay-credited
        engine events whose reconstructed fire time lies at or beyond it
        have not "happened" yet from the window's perspective (a live
        run would process them later) and are withheld for a later fold.
        None — the end-of-run safety net — attributes everything.
        """
        stats = self.admission.stats
        delta = stats.rejections - self._folded_rejections
        if delta:
            self.windows.observe_rejections(index, delta)
            self._folded_rejections = stats.rejections
        delta = stats.dropped - self._folded_dropped
        if delta:
            self.windows.observe_dropped(index, delta)
            self._folded_dropped = stats.dropped
        delta = stats.shed - self._folded_shed
        if delta:
            self.windows.observe_shed(index, delta)
            self._folded_shed = stats.shed
        delta = self.engine.processed - self._folded_engine_events
        ledger = self._replay_event_times
        if ledger:
            if up_to is None:
                ledger.clear()
            else:
                due = bisect_left(ledger, up_to)
                delta -= len(ledger) - due
                if due:
                    del ledger[:due]
        if delta:
            self.windows.note_engine_events(index, delta)
            self._folded_engine_events += delta

    def _on_window_close(self, now: float) -> None:
        index = self._next_close_index
        self._drain_shed()
        self._fold_deltas(index, up_to=now)
        self.windows.note_pending_depth(index, len(self.hv.pending))
        self._windows_closed += 1
        if self._tuner is not None:
            # The quiescent boundary: the window's deltas are folded and
            # no same-instant event outranks this one, so a config patch
            # applied here is atomic for the simulation.
            self._tuner.on_window_close(index, now)
        next_index = index + 1
        # Batch-advance over quiescent gaps: when the board is fully
        # drained and the only future work is the one-ahead arrival,
        # every window boundary before that arrival would close an empty
        # window (the sparse WindowedMetrics never materialises them and
        # no deltas can accrue with no events in between), so jump the
        # close chain straight to the arrival's window. Observable only
        # as fewer ``windows_closed``/``engine_events`` — identically in
        # both run modes. Disabled while periodic snapshots are armed,
        # which count boundaries.
        if (
            self.snapshot_every_windows is None
            and self._next_spec is not None
            and not self.hv.apps
            and self.hv._arrivals_outstanding == 1
        ):
            arrival_window = int(
                self._next_spec.arrival_ms // self.window_ms
            )
            if arrival_window > next_index:
                next_index = arrival_window
        self._next_close_index = next_index
        self._maybe_snapshot(now)
        if not self._finished():
            self.engine.schedule(
                (next_index + 1) * self.window_ms,
                self._on_window_close,
                _CLOSE_PRIORITY,
            )

    def _finished(self) -> bool:
        """True once the stream ended and the board fully drained."""
        hv = self.hv
        return (
            self._stream_done
            and self._next_spec is None
            and not hv.apps
            and hv._arrivals_outstanding == 0
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _quiescent(self) -> bool:
        """No app is admitted, running or in retry limbo.

        The single one-ahead submission (``_next_spec``) is allowed: its
        arrival lies in the future and a resume replays it from the
        arrival stream, so nothing is lost.
        """
        expected_outstanding = 1 if self._next_spec is not None else 0
        hv = self.hv
        return (
            not hv.apps
            and hv._arrivals_outstanding == expected_outstanding
        )

    def _maybe_snapshot(self, now: float) -> None:
        every = self.snapshot_every_windows
        if not every or self._windows_closed % every:
            return
        if not self._quiescent():
            return
        from repro.service.snapshot import build_snapshot

        self.snapshots.append(build_snapshot(self, now))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self) -> ServiceReport:
        """Run the service to stream end + drain; return the report."""
        if self._started:
            raise ServiceError(
                "a ServiceLoop runs once; build a new one (or resume "
                "from a snapshot) for another run"
            )
        self._started = True
        started_wall = _time.perf_counter()
        self._stream = self.arrivals.events(skip=self._skip)
        # Prime the one-ahead feeder (submits the first arrival, if any).
        self._pump(0.0)
        if not self._stream_done or self._next_spec is not None:
            self.engine.schedule(
                (self._next_close_index + 1) * self.window_ms,
                self._on_window_close,
                _CLOSE_PRIORITY,
            )
        self.engine.run()
        # Safety net: fold anything after the last boundary (only tiny
        # runs that never scheduled a close reach here with deltas).
        self._drain_shed()
        self._fold_deltas(self._next_close_index)
        wall_s = _time.perf_counter() - started_wall
        return self._report(wall_s)

    def _report(self, wall_s: float) -> ServiceReport:
        stats = self.admission.stats
        return ServiceReport(
            scheduler=self.scheduler_name,
            admission=self.admission_name,
            arrivals=self.arrivals.describe(),
            window_ms=self.window_ms,
            alpha=self.alpha,
            submitted=self._consumed,
            arrived=self._arrived,
            completed=self._completed,
            shed=self._shed_total,
            dropped=self._dropped_base + stats.dropped,
            rejections=self._rejections_base + stats.rejections,
            windows_closed=self._windows_closed,
            span_ms=self.engine.now,
            engine_events=self._engine_events_base + self.engine.processed,
            resumed_from_ms=self.resumed_from_ms,
            windows=self.windows,
            snapshots=self.snapshots,
            wall_s=wall_s,
            replay_hits=self.replay_hits,
            replay_misses=self.replay_misses,
            autotuned=self._tuner is not None,
            decisions=(
                [] if self._tuner is None else list(self._tuner.decisions)
            ),
        )

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        snapshot: dict,
        arrivals: ArrivalProcess,
        **overrides,
    ) -> "ServiceLoop":
        """A fresh loop continuing a snapshotted run.

        ``arrivals`` must be the same seeded process the snapshotted run
        used (checked against the recorded description). Keyword
        overrides replace constructor knobs; everything else — scheduler,
        admission, seed, window/sketch parameters, submission cap,
        snapshot cadence — comes from the snapshot, so an uninterrupted
        run and a snapshot-plus-resume run produce byte-identical
        reports.
        """
        from repro.service.snapshot import restore_state

        state, knobs = restore_state(snapshot, arrivals)
        knobs.update(overrides)
        return cls(arrivals, _resume_state=state, **knobs)
