"""Patch verification: replay the offending episode under a candidate.

Third stage of the remediation pipeline. The verifier never trusts a
rule: every candidate patch is scored by actually *replaying* the
captured arrival episode — a closed hypervisor run over the same event
specs, windows aligned to the same tumbling grid — under the patched
configuration, with the runtime invariant checker armed. A patch is
rejected if the replay trips an invariant, raises, or fails to beat the
baseline replay's score.

Scoring is the two-dimensional SLO applied per window (the same
:class:`~repro.metrics.slo.SloTarget` semantics the service tier
reports): *attainment* is the fraction of active windows meeting the
target, where an active window saw an arrival, a completion or a loss.
Drain windows count — a policy that accepts everything and drags a
half-minute backlog through ten windows of huge p99 scores worse than
one that sheds early and keeps every later window inside the target.
Ties break toward lower overall p99, then lower risk, then patch id —
fully deterministic, so decision logs are byte-identical at any
``--jobs`` and under replay on/off.

Replays are content-addressed: an :class:`EpisodeMemo` keyed by the
sha256 of (episode, tuning, seed, window, SLO, invariants) short-
circuits repeated verification of the same patch against the same
window, the in-memory analogue of the PR-2 run cache.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AutotuneError, InvariantViolation, ReproError
from repro.metrics.response import percentile
from repro.metrics.slo import SloTarget
from repro.autotune.proposals import ConfigPatch, TunableConfig
from repro.workload.events import EventSpec

__all__ = [
    "EpisodeMemo",
    "EpisodeScore",
    "Verification",
    "replay_episode",
    "verify_candidates",
]

#: Window score row: (index, arrived, completed, lost, p99_ms, met).
WindowRow = Tuple[int, int, int, int, float, bool]


@dataclass(frozen=True)
class EpisodeScore:
    """One episode replay reduced to its comparable outcome."""

    attainment: float
    p99_ms: float
    loss_frac: float
    arrived: int
    completed: int
    shed: int
    dropped: int
    span_ms: float
    windows: Tuple[WindowRow, ...] = ()
    #: Violated invariant name (the replay aborted) or None.
    invariant: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.invariant is None

    def beats(self, other: "EpisodeScore") -> bool:
        """Strictly better than ``other`` (the apply gate)."""
        if not self.ok:
            return False
        if not other.ok:
            return True
        if self.attainment != other.attainment:
            return self.attainment > other.attainment
        return _p99_less(self.p99_ms, other.p99_ms)

    def to_dict(self) -> dict:
        return {
            "attainment": self.attainment,
            "p99_ms": None if math.isnan(self.p99_ms) else self.p99_ms,
            "loss_frac": self.loss_frac,
            "arrived": self.arrived,
            "completed": self.completed,
            "shed": self.shed,
            "dropped": self.dropped,
            "span_ms": self.span_ms,
            "windows": [
                {
                    "index": index,
                    "arrived": arrived,
                    "completed": completed,
                    "lost": lost,
                    "p99_ms": None if math.isnan(p99) else p99,
                    "met": met,
                }
                for index, arrived, completed, lost, p99, met
                in self.windows
            ],
            "invariant": self.invariant,
        }

    def digest(self) -> str:
        """sha256 over the canonical score payload (the golden-pin and
        jobs/replay byte-identity surface for decision records)."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _p99_less(a: float, b: float) -> bool:
    """a < b with NaN (= nothing completed) treated as worst."""
    if math.isnan(a):
        return False
    if math.isnan(b):
        return True
    return a < b


def _p99(values: Sequence[float]) -> float:
    """Exact p99 with the window convention: no samples is NaN."""
    if not values:
        return float("nan")
    return percentile(values, 99.0)


def score_episode(
    specs: Sequence[EventSpec],
    results,
    shed_arrivals_ms: Sequence[float],
    dropped: int,
    *,
    window_ms: float,
    slo: SloTarget,
    invariant: Optional[str] = None,
    span_ms: float = 0.0,
) -> EpisodeScore:
    """Reduce a finished closed replay to an :class:`EpisodeScore`.

    Window attribution matches the service tier: arrivals land in their
    arrival window, completions (and their response samples) in their
    retire window, and shed apps are lost in their *arrival* window
    (that is when the caller's stream gave them up for lost). Exact
    percentiles — the verifier compares small episodes, so no sketch.
    """
    arrived: Dict[int, int] = {}
    completed: Dict[int, int] = {}
    lost: Dict[int, int] = {}
    responses: Dict[int, List[float]] = {}
    for spec in specs:
        index = int(spec.arrival_ms // window_ms)
        arrived[index] = arrived.get(index, 0) + 1
    for result in results:
        index = int(result.retire_ms // window_ms)
        completed[index] = completed.get(index, 0) + 1
        responses.setdefault(index, []).append(result.response_ms)
    for arrival_ms in shed_arrivals_ms:
        index = int(arrival_ms // window_ms)
        lost[index] = lost.get(index, 0) + 1

    rows: List[WindowRow] = []
    met_count = 0
    for index in sorted(set(arrived) | set(completed) | set(lost)):
        n_arrived = arrived.get(index, 0)
        n_completed = completed.get(index, 0)
        n_lost = lost.get(index, 0)
        p99 = _p99(responses.get(index, ()))
        loss_frac = (n_lost / n_arrived) if n_arrived else 0.0
        met = slo.met(p99, loss_frac)
        met_count += met
        rows.append((index, n_arrived, n_completed, n_lost, p99, met))

    all_responses = [r for samples in responses.values() for r in samples]
    total = len(specs)
    return EpisodeScore(
        attainment=(met_count / len(rows)) if rows else 1.0,
        p99_ms=_p99(all_responses),
        loss_frac=((len(shed_arrivals_ms) + dropped) / total) if total
        else 0.0,
        arrived=total,
        completed=len(all_responses),
        shed=len(shed_arrivals_ms),
        dropped=dropped,
        span_ms=span_ms,
        windows=tuple(rows),
        invariant=invariant,
    )


def replay_episode(
    specs: Sequence[EventSpec],
    tuning: TunableConfig,
    *,
    seed: int = 0,
    window_ms: float,
    slo: SloTarget,
    config=None,
    invariants: bool = True,
) -> EpisodeScore:
    """Closed replay of one arrival episode under one configuration.

    Builds a fresh hypervisor exactly the way the live system would
    (same seeds, same policy materialization), submits the captured
    specs up front and runs to drain. Invariant trips and admission
    errors are *verdicts*, not failures: they come back as a score with
    ``invariant`` set, which the chooser treats as rejected.
    """
    from repro.admission.controller import AdmissionController
    from repro.admission.watchdog import Watchdog
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.invariants.checker import InvariantChecker
    from repro.schedulers.registry import make_scheduler

    if not specs:
        raise AutotuneError("cannot replay an empty episode")
    controller = AdmissionController(tuning.admission_policy(), seed=seed)
    watchdog_config = tuning.watchdog_config()
    # Not run_closed: a run cut short by a violation is still scored.
    hypervisor = Hypervisor(
        make_scheduler(tuning.scheduler),
        config=config,
        admission=controller,
        watchdog=None if watchdog_config is None
        else Watchdog(watchdog_config),
        observer=InvariantChecker() if invariants else None,
        # Full mode: on a violation the checker dumps the offending
        # trace window, which a rowless metrics trace cannot serve.
        # Episodes are small, so the row cost is negligible.
        mode="full",
    )
    invariant = None
    try:
        for spec in specs:
            hypervisor.submit(spec.to_request())
        hypervisor.run()
    except InvariantViolation as exc:
        invariant = exc.invariant
    except ReproError as exc:
        invariant = f"{type(exc).__name__}: {exc}"
    results = hypervisor.results() if invariant is None else ()
    shed_arrivals = [app.arrival_ms for app in hypervisor.shed]
    return score_episode(
        specs,
        results,
        shed_arrivals,
        controller.stats.dropped,
        window_ms=window_ms,
        slo=slo,
        invariant=invariant,
        span_ms=hypervisor.engine.now,
    )


class EpisodeMemo:
    """In-memory content-addressed replay memo (PR-2 cache idiom)."""

    def __init__(self) -> None:
        self._scores: Dict[str, EpisodeScore] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        specs: Sequence[EventSpec],
        tuning: TunableConfig,
        seed: int,
        window_ms: float,
        slo: SloTarget,
        invariants: bool,
    ) -> str:
        payload = {
            "specs": [
                (s.benchmark, s.batch_size, s.priority, s.arrival_ms)
                for s in specs
            ],
            "tuning": tuning.to_dict(),
            "seed": seed,
            "window_ms": window_ms,
            "slo": (slo.p99_ms, slo.max_loss_frac),
            "invariants": invariants,
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def replay(self, specs, tuning, *, seed, window_ms, slo, config=None,
               invariants=True) -> EpisodeScore:
        key = self.key(specs, tuning, seed, window_ms, slo, invariants)
        score = self._scores.get(key)
        if score is not None:
            self.hits += 1
            return score
        self.misses += 1
        score = replay_episode(
            specs, tuning, seed=seed, window_ms=window_ms, slo=slo,
            config=config, invariants=invariants,
        )
        self._scores[key] = score
        return score


@dataclass(frozen=True)
class Verification:
    """One candidate's replay outcome plus the chooser's verdict."""

    patch: ConfigPatch
    score: EpisodeScore
    #: "verified" or "rejected:<reason>".
    verdict: str

    def to_dict(self) -> dict:
        return {
            "patch": self.patch.to_dict(),
            "score": self.score.to_dict(),
            "verdict": self.verdict,
        }


def verify_candidates(
    specs: Sequence[EventSpec],
    tuning: TunableConfig,
    candidates: Sequence[ConfigPatch],
    *,
    seed: int = 0,
    window_ms: float,
    slo: SloTarget,
    config=None,
    invariants: bool = True,
    memo: Optional[EpisodeMemo] = None,
) -> Tuple[EpisodeScore, Tuple[Verification, ...], Optional[Verification]]:
    """Score the baseline and every candidate; pick the winner.

    Returns ``(baseline_score, verifications, winner)`` where ``winner``
    is None if no candidate strictly beats the baseline. Verifications
    come back in candidate order; the winner is the best verified
    candidate by ``(attainment desc, p99 asc, risk asc, patch_id asc)``.
    """
    memo = memo if memo is not None else EpisodeMemo()
    baseline = memo.replay(
        specs, tuning, seed=seed, window_ms=window_ms, slo=slo,
        config=config, invariants=invariants,
    )
    verifications: List[Verification] = []
    for patch in candidates:
        score = memo.replay(
            specs, patch.apply(tuning), seed=seed, window_ms=window_ms,
            slo=slo, config=config, invariants=invariants,
        )
        if not score.ok:
            verdict = f"rejected:invariant:{score.invariant}"
        elif score.beats(baseline):
            verdict = "verified"
        elif score.attainment < baseline.attainment:
            verdict = "rejected:regression"
        else:
            verdict = "rejected:no-improvement"
        verifications.append(Verification(patch, score, verdict))

    winner: Optional[Verification] = None
    for verification in verifications:
        if verification.verdict != "verified":
            continue
        if winner is None or _ranks_above(verification, winner):
            winner = verification
    return baseline, tuple(verifications), winner


def _ranks_above(a: Verification, b: Verification) -> bool:
    if a.score.attainment != b.score.attainment:
        return a.score.attainment > b.score.attainment
    if a.score.p99_ms != b.score.p99_ms and not (
        math.isnan(a.score.p99_ms) and math.isnan(b.score.p99_ms)
    ):
        return _p99_less(a.score.p99_ms, b.score.p99_ms)
    if a.patch.risk != b.patch.risk:
        return a.patch.risk < b.patch.risk
    return a.patch.patch_id < b.patch.patch_id
