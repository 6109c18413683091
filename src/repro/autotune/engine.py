"""The closed-loop applier: detect → propose → verify → apply, live.

:class:`Autotuner` is the stage that runs *inside* a
:class:`~repro.service.loop.ServiceLoop`. The loop calls two hooks:

* :meth:`note_arrival` from the feeder pump — appends the consumed
  arrival spec to a bounded episode ring (the verifier's replay input);
* :meth:`on_window_close` from the window-close event, right after the
  window's deltas are folded — the quiescent boundary. The engine heap
  holds no same-instant work below the close's −100 priority, so a
  config swap here is atomic with respect to the simulation: every
  event before the boundary ran under the old config, every event after
  runs under the new one, exactly like a config push between requests
  in a live service.

A detection pass distills the trailing window stats and counter deltas
(admission overload edges + time-in-overload, watchdog starvation/stall
detections) into symptoms, asks the proposer for candidate patches,
replays the captured episode under each candidate (serially, through a
content-addressed memo — determinism cannot depend on worker count),
and applies the winner:

* **admission** — a fresh controller is built from the patched policy
  and the *live stats object is carried over*, so lifetime counters and
  the loop's fold baselines stay monotonic across the swap;
* **watchdog** — the frozen config object is replaced in place (the
  watchdog re-reads ``self.config`` every pass by design);
* **scheduler** — swapped only at an *empty-board* boundary; while the
  board holds apps, scheduler patches are filtered out before
  verification (mid-run state handoff between schedulers is undefined).

Every pass that found symptoms appends a frozen decision record —
symptoms, candidates with verdicts and replay scores, the applied patch
(or None) and a sha256 digest of the winning replay — to
:attr:`Autotuner.decisions`, which lands in the
:class:`~repro.service.loop.ServiceReport` payload. The record is a
pure function of the run's seeded inputs: byte-identical at any
``--jobs`` and (because an armed autotuner disables the macro-event
replay cache, whose mirror-world watchdog counters sit outside the
byte-identity contract) under ``--no-replay`` too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import AutotuneError
from repro.metrics.slo import DEFAULT_SERVICE_SLO, SloTarget
from repro.autotune.proposals import ConfigPatch, TunableConfig, propose
from repro.autotune.symptoms import (
    CounterDeltas,
    DetectorConfig,
    WindowSignal,
    detect,
)
from repro.autotune.verifier import EpisodeMemo, verify_candidates
from repro.workload.events import EventSpec

__all__ = ["AutotuneConfig", "Autotuner"]


@dataclass(frozen=True)
class AutotuneConfig:
    """Knobs of one closed-loop remediation run (frozen, picklable)."""

    detector: DetectorConfig = DetectorConfig()
    #: The SLO the verifier scores against (the detector's breach rule
    #: uses ``detector.slo``; keep them equal unless deliberately
    #: detecting on a tighter target than you verify against).
    slo: SloTarget = DEFAULT_SERVICE_SLO
    #: Run a detection pass every N window closes.
    check_every_windows: int = 1
    #: Window closes to skip after a pass that found symptoms.
    cooldown_windows: int = 6
    #: Hard cap on applied patches per run.
    max_applies: int = 2
    #: Trailing windows of arrivals the verifier replays.
    episode_windows: int = 6
    #: Arrival-ring capacity (bounds the episode's memory).
    episode_capacity: int = 4096
    #: Fewest captured arrivals worth replaying.
    min_episode_arrivals: int = 8
    #: Arm the invariant checker inside verification replays.
    verify_invariants: bool = True

    def __post_init__(self) -> None:
        for name in (
            "check_every_windows", "cooldown_windows", "max_applies",
            "episode_windows", "episode_capacity", "min_episode_arrivals",
        ):
            if getattr(self, name) < 1:
                raise AutotuneError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )

    def with_slo(self, slo: SloTarget) -> "AutotuneConfig":
        """This config detecting and verifying against ``slo``."""
        return replace(
            self, slo=slo, detector=replace(self.detector, slo=slo)
        )


class Autotuner:
    """Closed-loop remediation engine bound to one running ServiceLoop."""

    def __init__(self, loop, config: AutotuneConfig) -> None:
        self.loop = loop
        self.config = config
        self.tuning = TunableConfig.capture(
            loop.scheduler_name,
            loop.admission_name,
            loop.admission_knobs,
            loop.hv.watchdog,
        )
        # Sanity-materialize once: a bad knob set should fail at
        # construction, not inside the first verification replay.
        self.tuning.admission_policy()
        self._ring: Deque[EventSpec] = deque(
            maxlen=config.episode_capacity
        )
        self._memo = EpisodeMemo()
        self._cooldown_until = -1
        self._baselines: Dict[str, float] = self._counters()
        self.applies = 0
        self.decisions: List[dict] = []

    # ------------------------------------------------------------------
    # Loop hooks
    # ------------------------------------------------------------------
    def note_arrival(self, spec: EventSpec) -> None:
        """Feeder hook: capture one consumed arrival for the episode."""
        self._ring.append(spec)

    def on_window_close(self, index: int, now: float) -> None:
        """Window-close hook: one detection pass, maybe one apply."""
        cfg = self.config
        if self.applies >= cfg.max_applies:
            return
        if index < self._cooldown_until:
            return
        if (index + 1) % cfg.check_every_windows:
            return
        symptoms = detect(
            self._window_signals(index),
            self._deltas(now),
            cfg.detector,
        )
        if not symptoms:
            return
        # Symptoms found: this pass costs a decision record and starts
        # the cooldown whatever the verdicts turn out to be.
        self._cooldown_until = index + 1 + cfg.cooldown_windows
        self._baselines = self._counters()
        episode, t0_ms = self._episode(index, now)
        decision = {
            "window": index,
            "t_ms": now,
            "symptoms": [s.to_dict() for s in symptoms],
            "tuning_before": self.tuning.to_dict(),
            "episode": {
                "arrivals": len(episode),
                "t0_ms": t0_ms,
                "windows": cfg.episode_windows,
            },
            "baseline": None,
            "candidates": [],
            "applied": None,
            "tuning_after": self.tuning.to_dict(),
            "digest": None,
        }
        if len(episode) < cfg.min_episode_arrivals:
            decision["skipped"] = "episode-too-small"
            self.decisions.append(decision)
            return
        candidates = propose(symptoms, self.tuning)
        if self.loop.hv.apps:
            # Scheduler handoff under backlog is undefined; those
            # patches wait for an empty-board boundary that the
            # cooldown may never reach — drop them this pass.
            candidates = tuple(
                p for p in candidates if p.scheduler is None
            )
        if not candidates:
            decision["skipped"] = "no-candidates"
            self.decisions.append(decision)
            return
        baseline, verifications, winner = verify_candidates(
            episode,
            self.tuning,
            candidates,
            seed=self.loop.seed,
            window_ms=self.loop.window_ms,
            slo=self.config.slo,
            config=self.loop.hv.config,
            invariants=cfg.verify_invariants,
            memo=self._memo,
        )
        decision["baseline"] = baseline.to_dict()
        decision["candidates"] = [v.to_dict() for v in verifications]
        if winner is not None:
            self._apply(winner.patch)
            self.applies += 1
            decision["applied"] = winner.patch.patch_id
            decision["tuning_after"] = self.tuning.to_dict()
            decision["digest"] = winner.score.digest()
        self.decisions.append(decision)

    # ------------------------------------------------------------------
    # Detector inputs
    # ------------------------------------------------------------------
    def _window_signals(self, index: int) -> List[WindowSignal]:
        history = self.config.detector.history_windows
        table = self.loop.windows._windows
        signals = []
        for i in range(max(0, index - history + 1), index + 1):
            stats = table.get(i)
            if stats is not None:
                signals.append(WindowSignal.from_stats(stats))
        return signals

    def _counters(self) -> Dict[str, float]:
        loop = self.loop
        stats = loop.admission.stats
        watchdog = loop.hv.watchdog
        return {
            "overload_enters": float(stats.overload_enters),
            "overload_ms": stats.overload_ms,
            "starvations": float(
                getattr(watchdog, "starvations_detected", 0)
            ),
            "stalls": float(getattr(watchdog, "stalls_detected", 0)),
        }

    def _deltas(self, now: float) -> CounterDeltas:
        current = self._counters()
        base = self._baselines
        # An open overload window has not hit the EXIT-site accumulator
        # yet; overload_total_ms folds it in so time-in-overload is
        # current as of this boundary.
        overload_ms = (
            self.loop.admission.overload_total_ms(now)
            - base["overload_ms"]
        )
        return CounterDeltas(
            overload_enters=int(
                current["overload_enters"] - base["overload_enters"]
            ),
            overload_ms=overload_ms,
            starvations=int(
                current["starvations"] - base["starvations"]
            ),
            stalls=int(current["stalls"] - base["stalls"]),
        )

    def _episode(
        self, index: int, now: float
    ) -> Tuple[Tuple[EventSpec, ...], float]:
        """The trailing arrival episode, rebased to its window grid.

        ``t0`` is the opening boundary of the episode's first window, so
        rebased arrivals land in replay windows exactly aligned with the
        live run's — a multiple of ``window_ms`` by construction.
        """
        window_ms = self.loop.window_ms
        t0_ms = max(0, index + 1 - self.config.episode_windows) * window_ms
        episode = tuple(
            replace(spec, arrival_ms=spec.arrival_ms - t0_ms)
            for spec in self._ring
            if t0_ms <= spec.arrival_ms < now
        )
        return episode, t0_ms

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------
    def _apply(self, patch: ConfigPatch) -> None:
        from repro.admission.controller import AdmissionController
        from repro.schedulers.registry import make_scheduler

        loop = self.loop
        hv = loop.hv
        new_tuning = patch.apply(self.tuning)
        if new_tuning.scheduler != self.tuning.scheduler:
            # Only reachable at an empty-board boundary (busy-board
            # passes filter scheduler patches before verification).
            hv.scheduler = make_scheduler(new_tuning.scheduler)
        if patch.admission is not None:
            old = loop.admission
            controller = AdmissionController(
                new_tuning.admission_policy(), seed=loop.seed
            )
            # Carry the live bookkeeping across the swap: the stats
            # object keeps lifetime counters (and the loop's fold
            # baselines) monotonic; retry attempts and the open
            # overload window survive so nothing double-counts.
            controller.stats = old.stats
            controller._attempts = old._attempts
            controller._overload_since = old._overload_since
            controller._hv = hv
            hv.admission = controller
            loop.admission = controller
        if patch.watchdog_knobs and hv.watchdog is not None:
            hv.watchdog.config = new_tuning.watchdog_config()
        self.tuning = new_tuning
