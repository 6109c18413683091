"""Scheduler watchdog: stall detection and per-app starvation recovery.

The watchdog rides the scheduler-pass cadence (the hypervisor calls
``on_pass`` at the end of every pass) and watches two failure shapes the
core algorithm cannot express:

* **global stall** — the board is wedged: applications are pending, no
  slot is executing, the configuration port is idle, and the progress
  signature (items completed, reconfigurations finished, preemptions,
  retirements, sheds) has not moved for ``stall_passes`` consecutive
  passes. Recovery detaches every idle resident at the batch boundary
  (the paper's preemption primitive, so batch progress survives) and
  books a fresh pass.
* **per-app starvation** — one pending application has seen no token
  growth and no batch progress for ``starvation_passes`` passes while
  others advance. Recovery boosts its token to the current pending
  maximum so it clears the PREMA candidate threshold on the next pass.

Interplay with the PR-1 fault stall-breaker: the hypervisor's
``_break_fault_stall`` acts *inside* the pass, before this hook runs, and
records the pass number it last acted on. The watchdog treats that
breaker action as progress (its preemptions move the progress signature)
and additionally refuses to kick in a pass the breaker owned — so the two
mechanisms never double-fire on the same stalled app (pinned by
``tests/test_admission.py::TestWatchdogFaultInterplay``).

Both detections emit ``WATCHDOG_STALL``; both recoveries emit
``WATCHDOG_KICK``. A detached watchdog costs nothing (the hook site is a
single ``is not None`` predicate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import AdmissionError
from repro.sim.trace import TraceKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.application import AppRun
    from repro.hypervisor.hypervisor import Hypervisor

#: Progress-signature kinds, resolved once (the enum attribute lookups
#: sit on the per-pass hot path).
_ITEM_DONE = TraceKind.ITEM_DONE
_CONFIG_DONE = TraceKind.TASK_CONFIG_DONE
_CONFIG_START = TraceKind.TASK_CONFIG_START
_PREEMPTED = TraceKind.TASK_PREEMPTED


@dataclass(frozen=True)
class WatchdogConfig:
    """Tuning knobs; see ``docs/robustness.md`` for guidance.

    The defaults are deliberately patient: a pass fires on every engine
    event, so thresholds are counted in passes-without-progress, not
    wall-clock, and false positives under long-running batch items are
    excluded structurally (a stall requires an idle board).
    """

    #: Consecutive no-progress passes before a wedged board is kicked.
    stall_passes: int = 20
    #: Consecutive no-progress passes before one app counts as starved.
    starvation_passes: int = 400
    #: Minimum passes between two recovery actions (global and per-app).
    cooldown_passes: int = 50
    #: Whether starvation recovery boosts the victim's scheduling token.
    boost_tokens: bool = True

    def validate(self) -> None:
        if self.stall_passes < 1:
            raise AdmissionError(
                f"stall_passes must be >= 1, got {self.stall_passes}"
            )
        if self.starvation_passes < 1:
            raise AdmissionError(
                f"starvation_passes must be >= 1, got {self.starvation_passes}"
            )
        if self.cooldown_passes < 0:
            raise AdmissionError(
                f"cooldown_passes must be >= 0, got {self.cooldown_passes}"
            )


class Watchdog:
    """Stall/starvation detector attached to one hypervisor."""

    def __init__(self, config: Optional[WatchdogConfig] = None) -> None:
        self.config = config or WatchdogConfig()
        self.config.validate()
        self._hv: Optional["Hypervisor"] = None
        self._progress_sig: Optional[Tuple[int, int, int, int, int]] = None
        self._stalled_passes = 0
        self._last_kick_pass = -(10**9)
        #: Per-app ``[token, slots_used, stalled_passes]`` — one mutable
        #: entry per never-started pending app (hot path: one dict probe
        #: per app per pass).
        self._app_progress: Dict[int, list] = {}
        self._app_last_kick: Dict[int, int] = {}
        #: Starvation pass clock: increments once per pass that reaches
        #: the starvation check. Entries store the clock value at their
        #: last reset, so a quiet pass ages every entry implicitly
        #: without touching it.
        self._ns_clock = 0
        #: Clock value at which the earliest entry can reach the
        #: starvation threshold (None with no entries).
        self._ns_next_fire: Optional[int] = None
        #: Change signature of everything the per-app walk reads; while
        #: it holds still the walk is skipped (see _check_starvation).
        self._ns_sig: Optional[tuple] = None
        #: Per-trace resolved counter source: a metrics trace exposes
        #: its per-kind totals dict, saving four method calls
        #: per pass; the row-storing Trace falls back to ``count``.
        self._counts_trace: Optional[object] = None
        self._by_kind_counts: Optional[dict] = None
        #: Recovery-action counters (diagnostics and SLO metrics).
        self.stall_kicks = 0
        self.starvation_boosts = 0
        self.stalls_detected = 0
        self.starvations_detected = 0

    def attach(self, hypervisor: "Hypervisor") -> None:
        """Bind to one hypervisor (called from ``Hypervisor.__init__``)."""
        if self._hv is not None:
            raise AdmissionError(
                "watchdog is already attached to a hypervisor"
            )
        self._hv = hypervisor

    # ------------------------------------------------------------------
    def on_pass(self, hv: "Hypervisor", now: float) -> None:
        """End-of-pass hook: update counters, fire recovery when due."""
        trace = hv.trace
        if trace is not self._counts_trace:
            self._counts_trace = trace
            self._by_kind_counts = getattr(trace, "_total_by_kind", None)
        by_kind = self._by_kind_counts
        if by_kind is not None:
            get = by_kind.get
            item_done = get(_ITEM_DONE, 0)
            config_done = get(_CONFIG_DONE, 0)
            preempted = get(_PREEMPTED, 0)
            config_start = get(_CONFIG_START, 0)
        else:
            count = trace.count
            item_done = count(_ITEM_DONE)
            config_done = count(_CONFIG_DONE)
            preempted = count(_PREEMPTED)
            config_start = count(_CONFIG_START)
        sig = (
            item_done,
            config_done,
            preempted,
            len(hv.retired),
            len(hv.shed),
        )
        if sig != self._progress_sig:
            self._progress_sig = sig
            self._stalled_passes = 0
        elif len(hv.pending):
            self._stalled_passes += 1
        else:
            self._stalled_passes = 0
        if (
            self._stalled_passes >= self.config.stall_passes
            and self._check_stall(hv, now)
        ):
            # The stall kick just detached residents: re-read the counts
            # it moved so the starvation signature stays exact.
            if by_kind is not None:
                preempted = by_kind.get(_PREEMPTED, 0)
                config_start = by_kind.get(_CONFIG_START, 0)
            else:
                preempted = trace.count(_PREEMPTED)
                config_start = trace.count(_CONFIG_START)
        self._check_starvation(hv, now, config_start, preempted)

    # ------------------------------------------------------------------
    # Global stall
    # ------------------------------------------------------------------
    def _check_stall(self, hv: "Hypervisor", now: float) -> bool:
        """Returns True when a recovery action recorded trace events."""
        cfg = self.config
        if self._stalled_passes < cfg.stall_passes:
            return False
        if hv.scheduler_passes - self._last_kick_pass < cfg.cooldown_passes:
            return False
        if not self._wedged(hv):
            return False
        # The PR-1 fault stall-breaker already acted in this very pass:
        # it owns the recovery, the watchdog stands down.
        if hv._last_stall_break_pass == hv.scheduler_passes:
            self._stalled_passes = 0
            return False
        self.stalls_detected += 1
        hv.trace.record(
            now, TraceKind.WATCHDOG_STALL, detail=float(self._stalled_passes)
        )
        detached = hv._detach_idle_residents(now)
        if detached:
            self.stall_kicks += 1
            hv.trace.record(
                now, TraceKind.WATCHDOG_KICK, detail=float(detached)
            )
            hv._request_pass()
        self._last_kick_pass = hv.scheduler_passes
        self._stalled_passes = 0
        return True

    @staticmethod
    def _wedged(hv: "Hypervisor") -> bool:
        """Nothing is in flight but applications are still pending."""
        if not len(hv.pending) or hv.device.port.is_busy:
            return False
        return not any(slot.busy for slot in hv.device.slots)

    # ------------------------------------------------------------------
    # Per-app starvation
    # ------------------------------------------------------------------
    def _check_starvation(
        self, hv: "Hypervisor", now: float,
        config_starts: int, preemptions: int,
    ) -> None:
        cfg = self.config
        app_progress = self._app_progress
        # Apps that ran before are excluded structurally: waiting at a
        # batch boundary is not starvation, and ``first_item_start_ms``
        # never resets, so the never-started registry is exactly the set
        # that can ever be starved. Stale entries for started apps fall
        # to the sweep below.
        never_started = hv.pending.never_started_in_arrival_order()
        if not never_started and not app_progress:
            return
        clock = self._ns_clock + 1
        self._ns_clock = clock
        # Fast path: per-app starvation state only moves when a token, a
        # held-slot count or the queue membership changes, and every one
        # of those transitions bumps a monotone counter — queue version,
        # token generation, boost count, TASK_CONFIG_START (the
        # ``_slots_used`` increment site) and TASK_PREEMPTED (the
        # decrement sites, including watchdog detaches). While that
        # signature holds still, every entry just ages by one pass —
        # tracked implicitly by the clock — and the per-app walk is
        # deferred until the earliest entry could reach the threshold.
        # Fault injection moves ``_slots_used`` through paths outside
        # the signature (config failures, slot faults), so it disables
        # the fast path wholesale.
        if hv.faults is None:
            sig = (
                hv.pending.version,
                hv.scheduler.token_gen(),
                self.starvation_boosts,
                config_starts,
                preemptions,
            )
            if sig == self._ns_sig:
                next_fire = self._ns_next_fire
                if next_fire is None or clock < next_fire:
                    return
            else:
                self._ns_sig = sig
        else:
            self._ns_sig = None
        starvation_passes = cfg.starvation_passes
        live = len(never_started)
        # Max pending token, computed lazily on the first starvation hit
        # of the pass (over pre-boost tokens, as the eager version did —
        # boosts within a pass all reach the same target).
        max_token: Optional[float] = None
        min_base: Optional[int] = None
        for app in never_started:
            app_id = app.app_id
            # Items done is identically 0 for a never-started app (an
            # item completion implies an earlier first item start), so
            # token and held slots are the whole progress signal.
            token = app.token
            used = app._slots_used
            entry = app_progress.get(app_id)
            if entry is None or entry[0] != token or entry[1] != used:
                app_progress[app_id] = [token, used, clock]
                if min_base is None or clock < min_base:
                    min_base = clock
                continue
            base = entry[2]
            stalled = clock - base
            if stalled >= starvation_passes:
                last = self._app_last_kick.get(app_id, -(10**9))
                if hv.scheduler_passes - last >= cfg.cooldown_passes:
                    self.starvations_detected += 1
                    hv.trace.record(
                        now, TraceKind.WATCHDOG_STALL, app_id=app_id,
                        detail=float(stalled),
                    )
                    if max_token is None:
                        max_token = 0.0
                        for other in hv.pending.in_arrival_order():
                            if other.token > max_token:
                                max_token = other.token
                    if cfg.boost_tokens and max_token > app.token:
                        old_token = app.token
                        app.token = max_token
                        self.starvation_boosts += 1
                        hv.trace.record(
                            now, TraceKind.WATCHDOG_KICK, app_id=app_id,
                            detail=old_token,
                        )
                        hv._request_pass()
                    self._app_last_kick[app_id] = hv.scheduler_passes
                    entry[2] = base = clock
            if min_base is None or base < min_base:
                min_base = base
        self._ns_next_fire = (
            None if min_base is None else min_base + starvation_passes
        )
        # Drop bookkeeping for retired/shed/started apps so state stays
        # bounded.
        if len(app_progress) > live:
            pending = hv.pending
            for app_id in list(app_progress):
                app = pending.get(app_id)
                if app is None or app.first_item_start_ms is not None:
                    del app_progress[app_id]
                    self._app_last_kick.pop(app_id, None)

