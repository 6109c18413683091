"""The admission controller guarding the hypervisor's pending queue.

One :class:`AdmissionController` sits in front of the
:class:`~repro.hypervisor.queues.PendingQueue` of exactly one hypervisor.
The hypervisor consults it at two deterministic points:

* ``admit(now, app_id, request)`` — on every application arrival, before
  the :class:`~repro.hypervisor.application.AppRun` is built. A rejecting
  policy re-schedules the arrival with seeded exponential backoff (or
  drops it after ``max_retries``); the caller simply skips admission.
* ``on_pass(now)`` — at the start of every scheduler pass: the pressure
  signal is refreshed (emitting ``OVERLOAD_ENTER`` / ``OVERLOAD_EXIT``
  edges with hysteresis) and the ``shed`` policy evicts victims at what
  is a batch boundary by construction.

With the default ``unbounded`` policy both hooks reduce to counter
updates that never touch the trace, so an attached-but-unbounded run is
byte-identical to a run with no controller at all (pinned by
``tests/test_admission.py`` against the golden sha256 pins).

Determinism: the only randomness is the retry jitter, drawn from a
``random.Random`` seeded per ``(seed, app_id, attempt)`` — independent of
arrival interleaving and process boundaries, so serial and parallel
sweeps agree byte-for-byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.admission.policies import (
    AdmissionPolicy,
    DegradePolicy,
    RejectPolicy,
    ShedPolicy,
    make_admission_policy,
)
from repro.errors import AdmissionError
from repro.sim.trace import TraceKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.application import AppRequest, AppRun
    from repro.hypervisor.hypervisor import Hypervisor


@dataclass
class AdmissionStats:
    """Counters an admission controller accumulates over one run."""

    #: Distinct applications that arrived at least once.
    submitted: int = 0
    #: Applications accepted into the pending queue.
    admitted: int = 0
    #: Rejection events, including repeated retries of the same app.
    rejections: int = 0
    #: Applications dropped for good after exhausting their retries.
    dropped: int = 0
    #: Applications evicted from the pending queue by load shedding.
    shed: int = 0
    #: Completed overload windows (OVERLOAD_ENTER..EXIT pairs).
    overload_windows: int = 0
    #: OVERLOAD_ENTER edges, including a still-open window — with
    #: ``overload_windows`` this exposes oscillation (enter/exit
    #: flapping) without re-deriving it from trace rows.
    overload_enters: int = 0
    #: Total simulated time spent inside closed overload windows.
    overload_ms: float = 0.0
    #: Shed events by app priority level (sparse; absent = 0).
    shed_by_priority: Dict[int, int] = field(default_factory=dict)
    #: App ids dropped (rejected to death), in drop order.
    dropped_app_ids: List[int] = field(default_factory=list)

    @property
    def admission_ratio(self) -> float:
        """Fraction of distinct arrivals eventually admitted."""
        if self.submitted == 0:
            return 1.0
        return self.admitted / self.submitted


class AdmissionController:
    """Admission control, load shedding and degradation for one hypervisor."""

    def __init__(
        self,
        policy: Union[AdmissionPolicy, str] = "unbounded",
        seed: int = 0,
        **knobs,
    ) -> None:
        if isinstance(policy, str):
            policy = make_admission_policy(policy, **knobs)
        elif knobs:
            raise AdmissionError(
                "knob overrides require a policy name, not an instance; "
                f"got policy={policy!r} with knobs {sorted(knobs)}"
            )
        policy.validate()
        self.policy = policy
        self.seed = seed
        self.stats = AdmissionStats()
        self._hv: Optional["Hypervisor"] = None
        self._attempts: Dict[int, int] = {}
        self._overload_since: Optional[float] = None
        # The unbounded policy has no watermarks: both hooks short-circuit.
        high, low = policy.watermarks()
        self._high_watermark = high
        self._low_watermark = low
        # Policy kind, resolved once: these isinstance checks sit on the
        # per-pass (and per-arrival) hot paths and the policy object never
        # changes after construction.
        self._is_shed = isinstance(policy, ShedPolicy)
        self._is_degrade = isinstance(policy, DegradePolicy)
        # Pass-skip memo: for depth-driven policies the whole ``on_pass``
        # body is a pure function of queue depth, and depth cannot change
        # without a ``pending.version`` bump. ``_pass_skip_ok`` records
        # whether the last live pass ended in a state where an unchanged
        # version guarantees a no-op (never true for the degrade policy,
        # whose wait-time leg moves with the clock, and not while the
        # shed policy sits above capacity, where a victim can become
        # sheddable via a ``_slots_used`` decrement that bumps nothing).
        self._pass_version: int = -1
        self._pass_skip_ok = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, hypervisor: "Hypervisor") -> None:
        """Bind to one hypervisor (called from ``Hypervisor.__init__``)."""
        if self._hv is not None:
            raise AdmissionError(
                "admission controller is already attached to a hypervisor"
            )
        self._hv = hypervisor

    @property
    def overload_active(self) -> bool:
        """True while the pressure signal is inside an overload window."""
        return self._overload_since is not None

    # ------------------------------------------------------------------
    # Arrival hook
    # ------------------------------------------------------------------
    def admit(self, now: float, app_id: int, request: "AppRequest") -> bool:
        """Decide one arrival; True admits it into the pending queue.

        On False the controller has already either re-scheduled the
        arrival (reject policy, within its retry budget) or dropped the
        application; the hypervisor skips admission bookkeeping entirely.
        """
        if app_id not in self._attempts:
            self.stats.submitted += 1
        if not isinstance(self.policy, RejectPolicy):
            self.stats.admitted += 1
            return True
        hv = self._require_hv()
        policy = self.policy
        if len(hv.pending) < policy.queue_capacity:
            self._attempts.pop(app_id, None)
            self.stats.admitted += 1
            return True
        attempt = self._attempts.get(app_id, 0) + 1
        self._attempts[app_id] = attempt
        self.stats.rejections += 1
        if attempt > policy.max_retries:
            # Out of retries: the application never enters the system.
            self.stats.dropped += 1
            self.stats.dropped_app_ids.append(app_id)
            self._attempts.pop(app_id, None)
            hv.trace.record(
                now, TraceKind.APP_REJECTED, app_id=app_id,
                detail=-float(attempt),
            )
            return False
        hv.trace.record(
            now, TraceKind.APP_REJECTED, app_id=app_id, detail=float(attempt),
        )
        delay = policy.backoff_ms(attempt) * (1.0 + self._jitter(app_id, attempt))
        hv._arrivals_outstanding += 1
        hv.engine.schedule_delay(
            delay,
            lambda retry_now, a=app_id, r=request: hv._on_arrival(
                retry_now, a, r
            ),
            -5,
        )
        return False

    def _jitter(self, app_id: int, attempt: int) -> float:
        """Seeded, order-independent jitter fraction in ``±jitter_frac``."""
        frac = self.policy.jitter_frac  # type: ignore[attr-defined]
        if frac <= 0.0:
            return 0.0
        rng = random.Random(f"admission:{self.seed}:{app_id}:{attempt}")
        return rng.uniform(-frac, frac)

    # ------------------------------------------------------------------
    # Pass hook
    # ------------------------------------------------------------------
    def on_pass(self, now: float) -> None:
        """Refresh pressure and (for the shed policy) evict victims."""
        if self._high_watermark is None:
            return
        hv = self._require_hv()
        version = hv.pending.version
        if version == self._pass_version and self._pass_skip_ok:
            return
        self._update_pressure(hv, now)
        if self._is_shed:
            if self._shed_victims(hv, now):
                # Depth only changed if someone was actually evicted; a
                # second refresh with identical state is a no-op, skip it.
                self._update_pressure(hv, now)
            self._pass_skip_ok = (
                len(hv.pending) <= self.policy.queue_capacity
            )
        else:
            self._pass_skip_ok = not self._is_degrade
        self._pass_version = hv.pending.version

    def _update_pressure(self, hv: "Hypervisor", now: float) -> None:
        depth = len(hv.pending)
        if self._overload_since is None:
            if depth >= self._high_watermark or self._wait_high(hv, now):
                self._overload_since = now
                self.stats.overload_enters += 1
                hv.trace.record(
                    now, TraceKind.OVERLOAD_ENTER, detail=float(depth)
                )
        else:
            if depth <= self._low_watermark and not self._wait_high(
                hv, now, exit_side=True
            ):
                self.stats.overload_windows += 1
                self.stats.overload_ms += now - self._overload_since
                self._overload_since = None
                hv.trace.record(
                    now, TraceKind.OVERLOAD_EXIT, detail=float(depth)
                )

    def _wait_high(
        self, hv: "Hypervisor", now: float, exit_side: bool = False
    ) -> bool:
        """Degrade-policy wait-time leg of the pressure signal.

        Pressure is *queueing* delay: the longest wait among pending
        applications that have not started executing. Apps mid-execution
        stay pending until they retire, so the oldest unretired app's age
        would count normal service time and flag an idle board.
        """
        if not self._is_degrade:
            return False
        waited = 0.0
        for app in hv.pending.never_started_in_arrival_order():
            if app._slots_used == 0:
                waited = now - app.arrival_ms
                break
        threshold = self.policy.wait_high_ms
        if exit_side:
            threshold /= 2.0
        return waited >= threshold

    def _shed_victims(self, hv: "Hypervisor", now: float) -> int:
        policy = self.policy
        assert isinstance(policy, ShedPolicy)
        if len(hv.pending) <= policy.queue_capacity:
            return 0
        low = policy.effective_low_watermark()
        # Only never-started apps are sheddable; the registry hands the
        # subset over directly (an app can hold configured slots without
        # having launched an item, hence the residual ``_slots_used``
        # filter).
        victims = [
            app for app in hv.pending.never_started_in_arrival_order()
            if app._slots_used == 0
        ]
        # Lowest priority first; within a priority the youngest goes first
        # (it has waited least, so dropping it wastes the least patience).
        victims.sort(key=lambda app: (app.priority, -app.arrival_ms, -app.app_id))
        shed = 0
        for app in victims:
            if len(hv.pending) <= low:
                break
            hv._shed_app(app, now)
            self.stats.shed += 1
            by_priority = self.stats.shed_by_priority
            by_priority[app.priority] = by_priority.get(app.priority, 0) + 1
            shed += 1
        return shed

    # ------------------------------------------------------------------
    # Degradation signals consumed by the scheduler / launch loop
    # ------------------------------------------------------------------
    def slot_cap(self) -> Optional[int]:
        """Per-application slot-allocation cap, or None outside overload."""
        if self._is_degrade and self._overload_since is not None:
            return self.policy.slot_cap
        return None

    def pipelining_allowed(self) -> bool:
        """False while the degrade policy throttles pipelining depth."""
        if self._is_degrade and self._overload_since is not None:
            return not self.policy.cap_pipelining
        return True

    def filter_candidates(self, apps: List["AppRun"]) -> List["AppRun"]:
        """The scheduler's candidate view, possibly browned out.

        While the degrade policy is overloaded (and
        ``priority_scheduling`` is set), the view is re-ordered
        priority-major — highest priority class first, arrival order
        within a class — so even a priority-blind scheduler serves the
        most important waiting work first. No application is ever hidden:
        slots stay fed and low classes are delayed, not starved. Outside
        overload — and for every other policy — the input list is
        returned unchanged (same object: zero copy, zero drift).
        """
        if not apps or not self.overload_active:
            return apps
        policy = self.policy
        if (
            not isinstance(policy, DegradePolicy)
            or not policy.priority_scheduling
        ):
            return apps
        return sorted(apps, key=lambda app: (-app.priority, app.age_key))

    # ------------------------------------------------------------------
    def overload_total_ms(self, now: Optional[float] = None) -> float:
        """Closed overload time, plus the open window up to ``now``."""
        total = self.stats.overload_ms
        if self._overload_since is not None and now is not None:
            total += max(0.0, now - self._overload_since)
        return total

    def _require_hv(self) -> "Hypervisor":
        if self._hv is None:
            raise AdmissionError(
                "admission controller is not attached to a hypervisor"
            )
        return self._hv
