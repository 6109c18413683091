"""Open-loop arrival processes for the online service tier (repro.service).

Every experiment before the service tier replayed a closed, finite
:class:`~repro.workload.events.EventSequence` that was fully materialized
up front. An *arrival process* is the open-loop counterpart: a seeded,
lazily evaluated stream of :class:`~repro.workload.events.EventSpec`
records that can run to millions of submissions without ever holding more
than one event in memory. Four generators cover the service studies:

* **Poisson** — memoryless arrivals at a constant mean rate, the
  open-loop baseline of every queueing study;
* **MMPP** — a two-state Markov-modulated Poisson process alternating
  between a calm and a burst rate with exponentially distributed state
  holding times: bursty traffic with tunable burst duty cycle;
* **diurnal** — a sinusoidal rate curve between a trough and a peak over
  a configurable period (default: one simulated day), sampled exactly by
  Lewis-Shedler thinning;
* **trace replay** — replay of a saved JSON sequence
  (:mod:`repro.workload.trace_io`), optionally looped forever with the
  recorded span as the repeat offset.

Determinism contract: every process owns its seed, and ``events()``
returns a *fresh* iterator that replays the identical stream on every
call. ``skip(n)`` fast-forwards a new iterator past ``n`` arrivals (the
checkpoint/resume primitive of :mod:`repro.service.snapshot`) — the
resumed stream is byte-identical to the tail of an uninterrupted one.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, Optional, Sequence, Tuple

from repro.apps.catalog import BENCHMARK_NAMES
from repro.config import PRIORITY_LEVELS
from repro.errors import WorkloadError
from repro.workload.events import EventSpec

#: Default batch-size range for service arrivals. Mirrors the overload
#: study's small-batch regime: paper-default batches (up to 30) saturate
#: the ten-slot board on their own, drowning any arrival-rate signal.
SERVICE_BATCH_RANGE: Tuple[int, int] = (1, 4)

#: Default benchmark pool for service arrivals — the overload study's
#: pool without the heavyweight outliers ("dr" runs up to 787 s single
#: slot and would dominate every windowed tail).
SERVICE_BENCHMARKS: Tuple[str, ...] = ("lenet", "imgc", "3dr", "of")

#: Registry names of the built-in arrival processes.
ARRIVAL_KINDS: Tuple[str, ...] = (
    "poisson", "mmpp", "diurnal", "replay", "episode",
)


class ArrivalProcess:
    """Base class: a seeded, replayable, lazy stream of arrivals.

    Subclasses implement :meth:`_generate`, yielding events with
    non-decreasing ``arrival_ms`` forever (or until their natural end for
    finite processes such as un-looped trace replay). Consumers bound the
    stream themselves (``itertools.islice`` or the service loop's
    ``max_submissions``).
    """

    #: Registry name of the process (set by subclasses).
    kind: str = "abstract"

    def __init__(
        self,
        seed: int,
        benchmarks: Sequence[str] = SERVICE_BENCHMARKS,
        batch_range: Tuple[int, int] = SERVICE_BATCH_RANGE,
        priorities: Sequence[int] = PRIORITY_LEVELS,
    ) -> None:
        if not benchmarks:
            raise WorkloadError("benchmark pool must be non-empty")
        if not priorities:
            raise WorkloadError("priority pool must be non-empty")
        low, high = batch_range
        if low < 1 or high < low:
            raise WorkloadError(f"bad batch range {batch_range}")
        self.seed = seed
        self._benchmarks = tuple(benchmarks)
        self._batch_range = (low, high)
        self._priorities = tuple(priorities)

    # -- the lazy stream ------------------------------------------------
    def events(self, skip: int = 0) -> Iterator[EventSpec]:
        """A fresh iterator over the process's arrival stream.

        Every call replays the identical stream from the beginning;
        ``skip`` discards the first ``skip`` arrivals (O(skip) cheap RNG
        draws, no simulation) so a resumed service run sees exactly the
        tail an uninterrupted run would have seen.
        """
        stream = self._generate()
        if skip:
            stream = itertools.islice(stream, skip, None)
        return stream

    def _generate(self) -> Iterator[EventSpec]:
        raise NotImplementedError

    # -- shared per-event draws -----------------------------------------
    def _spec(self, rng: random.Random, arrival_ms: float) -> EventSpec:
        """Draw one event's benchmark/batch/priority at ``arrival_ms``."""
        return EventSpec(
            benchmark=rng.choice(self._benchmarks),
            batch_size=rng.randint(*self._batch_range),
            priority=rng.choice(self._priorities),
            arrival_ms=arrival_ms,
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{self.kind}(seed={self.seed})"


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a constant mean rate (events per second)."""

    kind = "poisson"

    def __init__(self, seed: int, rate_per_s: float, **pool_knobs) -> None:
        super().__init__(seed, **pool_knobs)
        if rate_per_s <= 0:
            raise WorkloadError(f"rate_per_s must be > 0, got {rate_per_s}")
        self.rate_per_s = rate_per_s

    def _generate(self) -> Iterator[EventSpec]:
        rng = random.Random(f"poisson:{self.seed}:{self.rate_per_s!r}")
        mean_gap_ms = 1000.0 / self.rate_per_s
        arrival = 0.0
        while True:
            arrival += rng.expovariate(1.0) * mean_gap_ms
            yield self._spec(rng, arrival)

    def describe(self) -> str:
        return f"poisson(rate={self.rate_per_s:g}/s, seed={self.seed})"


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process: calm runs, hot bursts.

    The modulating chain holds each state for an exponentially
    distributed time (means ``mean_calm_s`` / ``mean_burst_s``); within a
    state, arrivals are Poisson at that state's rate. The long-run mean
    rate is the holding-time-weighted average of the two rates.
    """

    kind = "mmpp"

    def __init__(
        self,
        seed: int,
        calm_rate_per_s: float,
        burst_rate_per_s: float,
        mean_calm_s: float = 30.0,
        mean_burst_s: float = 5.0,
        **pool_knobs,
    ) -> None:
        super().__init__(seed, **pool_knobs)
        for name, value in (
            ("calm_rate_per_s", calm_rate_per_s),
            ("burst_rate_per_s", burst_rate_per_s),
            ("mean_calm_s", mean_calm_s),
            ("mean_burst_s", mean_burst_s),
        ):
            if value <= 0:
                raise WorkloadError(f"{name} must be > 0, got {value}")
        self.calm_rate_per_s = calm_rate_per_s
        self.burst_rate_per_s = burst_rate_per_s
        self.mean_calm_s = mean_calm_s
        self.mean_burst_s = mean_burst_s

    def mean_rate_per_s(self) -> float:
        """Long-run arrival rate (holding-time-weighted state average)."""
        calm, burst = self.mean_calm_s, self.mean_burst_s
        return (
            self.calm_rate_per_s * calm + self.burst_rate_per_s * burst
        ) / (calm + burst)

    def _generate(self) -> Iterator[EventSpec]:
        rng = random.Random(
            f"mmpp:{self.seed}:{self.calm_rate_per_s!r}"
            f":{self.burst_rate_per_s!r}"
        )
        arrival = 0.0
        burst = False
        # Remaining holding time of the current state, ms.
        hold_ms = rng.expovariate(1.0) * self.mean_calm_s * 1000.0
        while True:
            rate = self.burst_rate_per_s if burst else self.calm_rate_per_s
            gap = rng.expovariate(1.0) * 1000.0 / rate
            # Burn through state switches that fall inside the gap; the
            # crossing gap is re-drawn at the new state's rate from the
            # switch point (memorylessness makes this exact).
            while gap >= hold_ms:
                arrival += hold_ms
                gap = rng.expovariate(1.0) * 1000.0 / (
                    self.calm_rate_per_s if burst else self.burst_rate_per_s
                )
                burst = not burst
                mean_s = self.mean_burst_s if burst else self.mean_calm_s
                hold_ms = rng.expovariate(1.0) * mean_s * 1000.0
            arrival += gap
            hold_ms -= gap
            yield self._spec(rng, arrival)

    def describe(self) -> str:
        return (
            f"mmpp(calm={self.calm_rate_per_s:g}/s, "
            f"burst={self.burst_rate_per_s:g}/s, seed={self.seed})"
        )


class EpisodeArrivals(ArrivalProcess):
    """Deterministic piecewise-constant rate phases, cycled forever.

    ``phases`` is a sequence of ``(duration_s, rate_per_s)`` pairs;
    within a phase arrivals are Poisson at that phase's rate, and the
    schedule cycles. Unlike :class:`MMPPArrivals` the phase boundaries
    are *fixed instants*, which is what overload-drill studies need: a
    calm warm-up, an exactly-timed burst (e.g. 4x for two minutes), and
    a recovery tail land at the same simulated times every seed, so
    "was the episode detected and remediated in time" is a sharp,
    reproducible question.
    """

    kind = "episode"

    def __init__(
        self,
        seed: int,
        phases: Sequence[Tuple[float, float]],
        **pool_knobs,
    ) -> None:
        super().__init__(seed, **pool_knobs)
        phases = tuple((float(d), float(r)) for d, r in phases)
        if not phases:
            raise WorkloadError("episode needs at least one phase")
        for duration_s, rate_per_s in phases:
            if duration_s <= 0:
                raise WorkloadError(
                    f"phase duration must be > 0s, got {duration_s}"
                )
            if rate_per_s <= 0:
                raise WorkloadError(
                    f"phase rate must be > 0/s, got {rate_per_s}"
                )
        self.phases = phases

    def mean_rate_per_s(self) -> float:
        """Duration-weighted mean rate over one cycle."""
        total_s = sum(d for d, _ in self.phases)
        return sum(d * r for d, r in self.phases) / total_s

    def _generate(self) -> Iterator[EventSpec]:
        rng = random.Random(f"episode:{self.seed}:{self.phases!r}")
        arrival = 0.0
        phase = 0
        hold_ms = self.phases[0][0] * 1000.0
        while True:
            gap = rng.expovariate(1.0) * 1000.0 / self.phases[phase][1]
            # Burn through phase boundaries inside the gap; the crossing
            # gap is re-drawn from the boundary at the next phase's rate
            # (memorylessness makes this exact, as in the MMPP).
            while gap >= hold_ms:
                arrival += hold_ms
                phase = (phase + 1) % len(self.phases)
                hold_ms = self.phases[phase][0] * 1000.0
                gap = rng.expovariate(1.0) * 1000.0 / self.phases[phase][1]
            arrival += gap
            hold_ms -= gap
            yield self._spec(rng, arrival)

    def describe(self) -> str:
        schedule = "+".join(f"{d:g}s@{r:g}/s" for d, r in self.phases)
        return f"episode({schedule}, seed={self.seed})"


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal rate curve between a trough and a peak rate.

    ``rate(t) = trough + (peak - trough) * (1 - cos(2 pi t / period)) / 2``
    — the curve starts at the trough, peaks at half period, and returns.
    Sampled by Lewis-Shedler thinning against the peak rate, which is
    exact for any bounded rate curve.
    """

    kind = "diurnal"

    def __init__(
        self,
        seed: int,
        trough_rate_per_s: float,
        peak_rate_per_s: float,
        period_s: float = 86_400.0,
        **pool_knobs,
    ) -> None:
        super().__init__(seed, **pool_knobs)
        if trough_rate_per_s <= 0:
            raise WorkloadError(
                f"trough_rate_per_s must be > 0, got {trough_rate_per_s}"
            )
        if peak_rate_per_s < trough_rate_per_s:
            raise WorkloadError(
                f"peak rate {peak_rate_per_s} must be >= trough rate "
                f"{trough_rate_per_s}"
            )
        if period_s <= 0:
            raise WorkloadError(f"period_s must be > 0, got {period_s}")
        self.trough_rate_per_s = trough_rate_per_s
        self.peak_rate_per_s = peak_rate_per_s
        self.period_s = period_s

    def rate_at(self, t_ms: float) -> float:
        """Instantaneous rate (events/s) at simulated time ``t_ms``."""
        phase = 2.0 * math.pi * (t_ms / 1000.0) / self.period_s
        span = self.peak_rate_per_s - self.trough_rate_per_s
        return self.trough_rate_per_s + span * (1.0 - math.cos(phase)) / 2.0

    def _generate(self) -> Iterator[EventSpec]:
        rng = random.Random(
            f"diurnal:{self.seed}:{self.trough_rate_per_s!r}"
            f":{self.peak_rate_per_s!r}:{self.period_s!r}"
        )
        peak = self.peak_rate_per_s
        arrival = 0.0
        while True:
            # Thinning: candidate gaps at the peak rate, accepted with
            # probability rate(t)/peak.
            while True:
                arrival += rng.expovariate(1.0) * 1000.0 / peak
                if rng.random() * peak <= self.rate_at(arrival):
                    break
            yield self._spec(rng, arrival)

    def describe(self) -> str:
        return (
            f"diurnal(trough={self.trough_rate_per_s:g}/s, "
            f"peak={self.peak_rate_per_s:g}/s, "
            f"period={self.period_s:g}s, seed={self.seed})"
        )


class TraceReplayArrivals(ArrivalProcess):
    """Replay a saved JSON sequence (:mod:`repro.workload.trace_io`).

    ``rate_multiplier`` divides every recorded gap (the overload study's
    congestion knob, applied to recorded traffic); ``loop=True`` repeats
    the recording forever, advancing each cycle by the recorded span plus
    one mean gap so the stream stays strictly open-loop.
    """

    kind = "replay"

    def __init__(
        self,
        path,
        rate_multiplier: float = 1.0,
        loop: bool = False,
    ) -> None:
        from repro.workload.trace_io import load_sequence

        # The pool knobs are irrelevant: every event field is replayed.
        super().__init__(seed=0)
        if rate_multiplier <= 0:
            raise WorkloadError(
                f"rate_multiplier must be > 0, got {rate_multiplier}"
            )
        self.path = str(path)
        self.rate_multiplier = rate_multiplier
        self.loop = loop
        self._sequence = load_sequence(path)

    def _generate(self) -> Iterator[EventSpec]:
        events = self._sequence.events
        scale = 1.0 / self.rate_multiplier
        base = events[0].arrival_ms
        span = (events[-1].arrival_ms - base) * scale
        gaps = len(events) - 1
        mean_gap = (span / gaps) if gaps else 1000.0 * scale
        offset = 0.0
        while True:
            for event in events:
                yield EventSpec(
                    benchmark=event.benchmark,
                    batch_size=event.batch_size,
                    priority=event.priority,
                    arrival_ms=offset + (event.arrival_ms - base) * scale,
                )
            if not self.loop:
                return
            offset += span + mean_gap

    def describe(self) -> str:
        mode = "loop" if self.loop else "once"
        return (
            f"replay({self.path!r}, x{self.rate_multiplier:g}, {mode}, "
            f"{len(self._sequence)} events/cycle)"
        )


def make_arrivals(kind: str, seed: int = 1, **knobs) -> ArrivalProcess:
    """Build an arrival process by registry name.

    ``poisson`` needs ``rate_per_s``; ``mmpp`` needs ``calm_rate_per_s``
    and ``burst_rate_per_s``; ``diurnal`` needs ``trough_rate_per_s`` and
    ``peak_rate_per_s``; ``replay`` needs ``path``; ``episode`` needs
    ``phases`` (``(duration_s, rate_per_s)`` pairs). Unknown kinds raise
    :class:`~repro.errors.WorkloadError` listing the registry.
    """
    try:
        if kind == "poisson":
            return PoissonArrivals(seed, **knobs)
        if kind == "mmpp":
            return MMPPArrivals(seed, **knobs)
        if kind == "diurnal":
            return DiurnalArrivals(seed, **knobs)
        if kind == "replay":
            return TraceReplayArrivals(**knobs)
        if kind == "episode":
            return EpisodeArrivals(seed, **knobs)
    except TypeError as error:
        raise WorkloadError(f"bad {kind!r} arrival knobs: {error}") from None
    raise WorkloadError(
        f"unknown arrival process {kind!r}; known: {list(ARRIVAL_KINDS)}"
    )


def service_rate_process(
    rate_per_s: float, seed: int = 1, burstiness: float = 0.0, **pool_knobs
) -> ArrivalProcess:
    """The capacity study's one-knob process: a rate plus burstiness.

    ``burstiness=0`` is plain Poisson at ``rate_per_s``; positive values
    build an MMPP with the *same long-run mean rate* whose burst state
    runs ``1 + 3*burstiness`` times hotter than the mean — so capacity
    curves stay comparable across burstiness levels.
    """
    if burstiness < 0:
        raise WorkloadError(f"burstiness must be >= 0, got {burstiness}")
    if burstiness == 0:
        return PoissonArrivals(seed, rate_per_s, **pool_knobs)
    mean_calm_s, mean_burst_s = 30.0, 5.0
    hot = rate_per_s * (1.0 + 3.0 * burstiness)
    # Solve the calm rate so the holding-time-weighted mean stays put.
    calm = (
        rate_per_s * (mean_calm_s + mean_burst_s) - hot * mean_burst_s
    ) / mean_calm_s
    if calm <= 0:
        raise WorkloadError(
            f"burstiness {burstiness} too high for rate {rate_per_s}/s "
            "(calm-state rate would go non-positive)"
        )
    return MMPPArrivals(
        seed, calm_rate_per_s=calm, burst_rate_per_s=hot,
        mean_calm_s=mean_calm_s, mean_burst_s=mean_burst_s, **pool_knobs
    )
