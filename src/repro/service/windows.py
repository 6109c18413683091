"""Tumbling-window streaming SLO metrics for the online service tier.

The closed-run metrics (:mod:`repro.metrics`) assume the full trace and
every :class:`~repro.hypervisor.results.AppResult` are in memory; an
open-loop service run to millions of submissions can afford neither.
This module keeps the service run's entire statistical footprint in a
bounded structure:

* time is cut into **tumbling windows** of ``window_ms`` — half-open
  intervals ``[k * window_ms, (k+1) * window_ms)`` addressed by their
  integer index ``k``;
* each window holds plain counters (arrivals, completions, sheds, drops,
  rejections, engine events) plus one
  :class:`~repro.service.sketch.QuantileSketch` of the completed
  responses, so per-window p50/p95/p99 are available at any time within
  the sketch's documented relative-error bound;
* empty windows are never materialised — a diurnal trough costs nothing.

Everything merges **associatively and commutatively**: counters add,
sketches add bucket-wise, gauges take the max. Sharded service cells
gathered in task order therefore produce byte-identical serialized
metrics at any ``--jobs`` count — the same contract
:func:`repro.observe.merge_snapshots` keeps for closed-run metrics.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ServiceError
from repro.service.sketch import DEFAULT_ALPHA, QuantileSketch

#: Default tumbling-window width (10 simulated seconds).
DEFAULT_WINDOW_MS = 10_000.0

#: Pseudo-index of run-total aggregates (never a real window).
TOTAL_INDEX = -1


class WindowStats:
    """Aggregates of one tumbling window (or of a run total).

    All fields are mergeable: counters add, ``peak_pending`` maxes and
    the response sketch merges exactly, so two shards of the same window
    combine into precisely the stats a single-process run would have
    produced.
    """

    __slots__ = ("index", "arrived", "completed", "shed", "dropped",
                 "rejections", "engine_events", "peak_pending", "sketch")

    def __init__(self, index: int, alpha: float = DEFAULT_ALPHA) -> None:
        self.index = index
        self.arrived = 0
        self.completed = 0
        self.shed = 0
        self.dropped = 0
        self.rejections = 0
        self.engine_events = 0
        #: Deepest pending queue observed at a window boundary.
        self.peak_pending = 0
        #: Sketch of completed-app response times (ms).
        self.sketch = QuantileSketch(alpha=alpha)

    # -- queries --------------------------------------------------------
    @property
    def loss_frac(self) -> float:
        """Fraction of this window's arrivals lost (shed + dropped)."""
        if self.arrived == 0:
            return 0.0
        return (self.shed + self.dropped) / self.arrived

    def p(self, pct: float) -> float:
        """Response percentile of the window (NaN when empty)."""
        return self.sketch.percentile(pct)

    @property
    def empty(self) -> bool:
        """True when nothing at all happened in the window."""
        return (
            self.arrived == 0 and self.completed == 0 and self.shed == 0
            and self.dropped == 0 and self.rejections == 0
            and self.engine_events == 0 and self.peak_pending == 0
        )

    # -- merging and serialization --------------------------------------
    def merge(self, other: "WindowStats") -> "WindowStats":
        """Fold another shard of the *same* window (or total) into self."""
        if self.index != other.index:
            raise ServiceError(
                f"cannot merge window {other.index} into window {self.index}"
            )
        self.arrived += other.arrived
        self.completed += other.completed
        self.shed += other.shed
        self.dropped += other.dropped
        self.rejections += other.rejections
        self.engine_events += other.engine_events
        self.peak_pending = max(self.peak_pending, other.peak_pending)
        self.sketch.merge(other.sketch)
        return self

    @classmethod
    def combined(
        cls, parts: List["WindowStats"], alpha: float = DEFAULT_ALPHA
    ) -> "WindowStats":
        """Run-total aggregate over any set of windows."""
        total = cls(TOTAL_INDEX, alpha=alpha)
        for part in parts:
            total.arrived += part.arrived
            total.completed += part.completed
            total.shed += part.shed
            total.dropped += part.dropped
            total.rejections += part.rejections
            total.engine_events += part.engine_events
            total.peak_pending = max(total.peak_pending, part.peak_pending)
            total.sketch.merge(part.sketch)
        return total

    def to_dict(self) -> dict:
        """Deterministic JSON-serializable state."""
        return {
            "index": self.index,
            "arrived": self.arrived,
            "completed": self.completed,
            "shed": self.shed,
            "dropped": self.dropped,
            "rejections": self.rejections,
            "engine_events": self.engine_events,
            "peak_pending": self.peak_pending,
            "sketch": self.sketch.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowStats":
        """Rebuild window stats from :meth:`to_dict` output."""
        try:
            stats = cls(int(payload["index"]))
            stats.arrived = int(payload["arrived"])
            stats.completed = int(payload["completed"])
            stats.shed = int(payload["shed"])
            stats.dropped = int(payload["dropped"])
            stats.rejections = int(payload["rejections"])
            stats.engine_events = int(payload["engine_events"])
            stats.peak_pending = int(payload["peak_pending"])
            stats.sketch = QuantileSketch.from_dict(payload["sketch"])
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(
                f"malformed window payload: {error}"
            ) from None
        return stats


class WindowedMetrics:
    """The service run's full streaming-metric state.

    A sparse map of window index to :class:`WindowStats`. Memory is
    O(non-empty windows), independent of submission count; merges are
    pointwise per index and therefore exactly associative.
    """

    __slots__ = ("window_ms", "alpha", "_windows")

    def __init__(
        self,
        window_ms: float = DEFAULT_WINDOW_MS,
        alpha: float = DEFAULT_ALPHA,
    ) -> None:
        if window_ms <= 0:
            raise ServiceError(f"window_ms must be > 0, got {window_ms}")
        self.window_ms = window_ms
        self.alpha = alpha
        self._windows: Dict[int, WindowStats] = {}

    # -- addressing -----------------------------------------------------
    def window_index(self, t_ms: float) -> int:
        """The tumbling-window index containing simulated time ``t_ms``."""
        return int(t_ms // self.window_ms)

    def _at(self, index: int) -> WindowStats:
        stats = self._windows.get(index)
        if stats is None:
            stats = self._windows[index] = WindowStats(
                index, alpha=self.alpha
            )
        return stats

    # -- observations (time-addressed) ----------------------------------
    def observe_arrival(self, t_ms: float) -> None:
        """One application arrived at ``t_ms``."""
        self._at(self.window_index(t_ms)).arrived += 1

    def observe_completion(self, t_ms: float, response_ms: float) -> None:
        """One application retired at ``t_ms`` with ``response_ms``."""
        stats = self._at(self.window_index(t_ms))
        stats.completed += 1
        stats.sketch.add(response_ms)

    # -- observations (index-addressed; folded at window close) ---------
    def observe_shed(self, index: int, count: int) -> None:
        """``count`` applications were shed inside window ``index``."""
        if count:
            self._at(index).shed += count

    def observe_dropped(self, index: int, count: int) -> None:
        """``count`` applications were dropped inside window ``index``."""
        if count:
            self._at(index).dropped += count

    def observe_rejections(self, index: int, count: int) -> None:
        """``count`` rejection events fired inside window ``index``."""
        if count:
            self._at(index).rejections += count

    def note_engine_events(self, index: int, count: int) -> None:
        """``count`` engine events were processed inside window ``index``."""
        if count:
            self._at(index).engine_events += count

    def note_pending_depth(self, index: int, depth: int) -> None:
        """Pending-queue depth gauge at the close of window ``index``."""
        if depth:
            stats = self._at(index)
            if depth > stats.peak_pending:
                stats.peak_pending = depth

    # -- queries --------------------------------------------------------
    @property
    def windows(self) -> List[WindowStats]:
        """All non-empty windows, in index order."""
        return [self._windows[i] for i in sorted(self._windows)]

    def __len__(self) -> int:
        return len(self._windows)

    def total(self) -> WindowStats:
        """Run-total aggregate across every window."""
        return WindowStats.combined(self.windows, alpha=self.alpha)

    def slo_attainment(self, target) -> float:
        """Share of windows with arrivals whose p99 and loss meet a
        :class:`~repro.metrics.slo.SloTarget` (1.0 with no such window)."""
        active = [w for w in self.windows if w.arrived > 0]
        if not active:
            return 1.0
        met = sum(1 for w in active if target.met(w.p(99.0), w.loss_frac))
        return met / len(active)

    # -- merging and serialization --------------------------------------
    def merge(self, other: "WindowedMetrics") -> "WindowedMetrics":
        """Pointwise-merge another shard's windows into self (exact)."""
        if self.window_ms != other.window_ms or self.alpha != other.alpha:
            raise ServiceError(
                "cannot merge windowed metrics with different parameters: "
                f"window_ms {self.window_ms} vs {other.window_ms}, "
                f"alpha {self.alpha} vs {other.alpha}"
            )
        for index in sorted(other._windows):
            stats = other._windows[index]
            mine = self._windows.get(index)
            if mine is None:
                self._windows[index] = WindowStats.from_dict(stats.to_dict())
            else:
                mine.merge(stats)
        return self

    def to_dict(self) -> dict:
        """Deterministic JSON-serializable state (windows in index order).

        Equal metrics serialize identically — the byte-identity contract
        behind the ``--jobs N`` CI diff.
        """
        return {
            "window_ms": self.window_ms,
            "alpha": self.alpha,
            "windows": [stats.to_dict() for stats in self.windows],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowedMetrics":
        """Rebuild windowed metrics from :meth:`to_dict` output."""
        try:
            metrics = cls(
                window_ms=float(payload["window_ms"]),
                alpha=float(payload["alpha"]),
            )
            for entry in payload["windows"]:
                stats = WindowStats.from_dict(entry)
                metrics._windows[stats.index] = stats
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(
                f"malformed windowed-metrics payload: {error}"
            ) from None
        return metrics

    # -- rendering ------------------------------------------------------
    def format_table(self, limit: int = 12) -> str:
        """A fixed-width per-window table (head and tail when long)."""
        rows = self.windows
        header = (
            f"{'window':>8} {'t0_s':>8} {'arrive':>7} {'done':>7} "
            f"{'shed':>6} {'drop':>6} {'depth':>6} "
            f"{'p50_ms':>9} {'p99_ms':>9}"
        )
        lines = [header]
        shown = rows
        elided = 0
        if len(rows) > limit:
            head = limit // 2
            tail = limit - head
            shown = rows[:head] + rows[-tail:]
            elided = len(rows) - limit
        for position, stats in enumerate(shown):
            if elided and position == limit // 2:
                lines.append(f"{'...':>8} ({elided} windows elided)")
            t0_s = stats.index * self.window_ms / 1000.0
            lines.append(
                f"{stats.index:>8} {t0_s:>8.0f} {stats.arrived:>7} "
                f"{stats.completed:>7} {stats.shed:>6} {stats.dropped:>6} "
                f"{stats.peak_pending:>6} "
                f"{_fmt_ms(stats.p(50.0)):>9} {_fmt_ms(stats.p(99.0)):>9}"
            )
        return "\n".join(lines)


def _fmt_ms(value: float) -> str:
    """Render a millisecond figure ('-' when NaN: nothing completed)."""
    if value != value:  # NaN
        return "-"
    return f"{value:.0f}"


def merge_windowed(
    parts: List[WindowedMetrics],
) -> Optional[WindowedMetrics]:
    """Merge many shards into a fresh one (None for an empty list)."""
    merged: Optional[WindowedMetrics] = None
    for part in parts:
        if merged is None:
            merged = WindowedMetrics.from_dict(part.to_dict())
        else:
            merged.merge(part)
    return merged
