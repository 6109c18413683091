"""Shared experiment infrastructure: settings, closed runs, run cache,
table rendering.

The paper evaluates each algorithm on the same 10 distinct 20-event
sequences. Those are the defaults here; ``ExperimentSettings`` honours the
``REPRO_SEQUENCES``, ``REPRO_EVENTS`` and ``REPRO_BASE_SEED`` environment
variables so the benchmark harness can be scaled down for quick runs or up
for full fidelity without code changes.

``RunCache`` is a two-tier memoization layer for simulation runs:

* **memory tier** — per-instance dict, exactly one simulation per
  (scheduler, stimulus) pair within a harness instance;
* **disk tier** (optional, ``cache_dir=...``) — content-addressed JSON
  records keyed by scheduler name, sequence label, a fingerprint of the
  sequence's events, a fingerprint of the :class:`SystemConfig`, and a
  code-version salt. Repeated figure/bench invocations hit disk instead
  of re-simulating; any config or stimulus change misses by construction.

``prewarm`` fans missing runs out over a process pool (see
:mod:`repro.experiments.parallel`); because the simulation engine is fully
deterministic, parallel and serial execution produce identical
:class:`AppResult` lists.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.results import AppResult
from repro.modes import normalize_mode
from repro.schedulers.registry import make_scheduler
from repro.workload.events import EventSequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.admission import AdmissionPolicy, WatchdogConfig
    from repro.faults.models import FaultConfig
    from repro.hypervisor.application import AppRequest
    from repro.sim.replay import ReplayCache

#: Paper defaults: 10 distinct sequences of 20 events each.
DEFAULT_SEQUENCES = 10
DEFAULT_EVENTS = 20

#: Base seed for sequence generation; sequence ``i`` uses ``BASE_SEED + i``.
BASE_SEED = 20230617  # ISCA'23 started June 17 2023

#: Code-version salt baked into every disk-cache key. Bump it whenever
#: simulation semantics change (scheduling logic, timing accounting,
#: result fields): stale entries then miss instead of resurfacing results
#: produced by older code.
CACHE_SALT = "nimblock-runcache-v1"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ExperimentError(f"{name} must be an integer, got {raw!r}")
    if value < 1:
        raise ExperimentError(f"{name} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class ExperimentSettings:
    """How many sequences/events each experiment runs."""

    num_sequences: int = DEFAULT_SEQUENCES
    num_events: int = DEFAULT_EVENTS
    base_seed: int = BASE_SEED

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        """Settings honouring REPRO_SEQUENCES / REPRO_EVENTS /
        REPRO_BASE_SEED overrides."""
        return cls(
            num_sequences=_env_int("REPRO_SEQUENCES", DEFAULT_SEQUENCES),
            num_events=_env_int("REPRO_EVENTS", DEFAULT_EVENTS),
            base_seed=_env_int("REPRO_BASE_SEED", BASE_SEED),
        )

    def seeds(self) -> List[int]:
        """Seed per sequence."""
        return [self.base_seed + i for i in range(self.num_sequences)]


def run_closed(
    scheduler: str,
    requests: Iterable["AppRequest"],
    *,
    label: str = "",
    config: Optional[SystemConfig] = None,
    faults: Optional["FaultConfig"] = None,
    admission: Union[str, "AdmissionPolicy", None] = None,
    seed: int = 0,
    watchdog: Optional["WatchdogConfig"] = None,
    observer: Optional[object] = None,
    mode: str = "full",
    replay: Optional["ReplayCache"] = None,
) -> Hypervisor:
    """Submit every request to one board, run it to drain, return it.

    Built from picklable inputs, so a worker rebuilds exactly what a
    serial run does: a fault injector iff ``faults`` is enabled, an
    admission controller for ``admission`` (policy name or policy)
    seeded by ``seed``, a watchdog iff a ``watchdog`` config is given.
    Raises :class:`ExperimentError`, naming ``label``, if an admitted
    application neither retired nor was shed.
    """
    injector = controller = dog = None
    if faults is not None and faults.enabled:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(faults)
    if admission is not None:
        from repro.admission.controller import AdmissionController

        controller = AdmissionController(admission, seed=seed)
    if watchdog is not None:
        from repro.admission.watchdog import Watchdog

        dog = Watchdog(watchdog)
    hypervisor = Hypervisor(
        make_scheduler(scheduler), config=config, faults=injector,
        admission=controller, watchdog=dog, observer=observer, mode=mode,
        replay=replay,
    )
    for request in requests:
        hypervisor.submit(request)
    hypervisor.run()
    if not hypervisor.all_retired:
        raise ExperimentError(
            f"scheduler {scheduler!r} failed to drain run {label!r}: "
            f"{len(hypervisor.retired)} retired + {len(hypervisor.shed)} "
            f"shed of {len(hypervisor.apps)} admitted"
        )
    return hypervisor


def run_sequence(
    scheduler_name: str,
    sequence: EventSequence,
    config: Optional[SystemConfig] = None,
    mode: str = "full",
) -> List[AppResult]:
    """Run one event sequence under one scheduler to completion.

    ``mode="metrics"`` skips trace-row recording; the returned
    :class:`AppResult` list is identical in either mode (results are
    derived from hypervisor state, never from trace rows).
    """
    return run_closed(
        scheduler_name, sequence.to_requests(), label=sequence.label,
        config=config, mode=mode,
    ).results()


def config_fingerprint(config: SystemConfig) -> str:
    """Stable content hash of a :class:`SystemConfig`.

    Any field change (slot count, reconfiguration latency, token alpha,
    ...) changes the fingerprint, so disk-cache entries recorded under a
    different platform can never satisfy a lookup.
    """
    canonical = json.dumps(asdict(config), sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sequence_fingerprint(sequence: EventSequence) -> str:
    """Stable content hash of a sequence's events (not just its label)."""
    canonical = json.dumps(
        [
            [e.benchmark, e.batch_size, e.priority, e.arrival_ms]
            for e in sequence
        ],
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunCache:
    """Two-tier memoization of simulation runs per (scheduler, stimulus,
    platform).

    Figures 5-8 all consume the same stimuli; within one harness instance
    each (scheduler, sequence) pair simulates exactly once (memory tier).
    With ``cache_dir`` set, completed runs are additionally persisted as
    content-addressed JSON records so *separate* invocations (CLI runs,
    bench sessions, CI jobs) skip simulation entirely; a warm rerun
    performs zero simulations.

    Counters: ``simulations`` (real engine runs), ``memory_hits`` and
    ``disk_hits`` describe where each ``results`` call was served from.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        jobs: Optional[int] = None,
        mode: str = "full",
    ) -> None:
        self.config = config or SystemConfig()
        self.cache_dir = Path(cache_dir) if cache_dir else None
        #: Default worker count for :meth:`prewarm` (None = REPRO_JOBS or 1).
        self.jobs = jobs
        #: Engine run mode for fresh simulations. Deliberately NOT part of
        #: the disk-cache key: results are mode-independent (pinned by
        #: ``tests/test_mode_equivalence.py``), so either mode may satisfy
        #: a lookup recorded by the other.
        self.mode = normalize_mode(mode)
        self._runs: Dict[Tuple[str, str], List[AppResult]] = {}
        self._label_fingerprints: Dict[str, str] = {}
        self._config_fingerprint = config_fingerprint(self.config)
        self.simulations = 0
        self.memory_hits = 0
        self.disk_hits = 0

    # -- keying ------------------------------------------------------------
    def _key(
        self, scheduler_name: str, sequence: EventSequence
    ) -> Tuple[str, str]:
        if not sequence.label:
            raise ExperimentError(
                "cached runs need labelled sequences (set EventSequence.label)"
            )
        fingerprint = sequence_fingerprint(sequence)
        known = self._label_fingerprints.get(sequence.label)
        if known is None:
            self._label_fingerprints[sequence.label] = fingerprint
        elif known != fingerprint:
            raise ExperimentError(
                f"sequence label {sequence.label!r} reused for different "
                "events (same label, different seed or contents); cached "
                "results would silently mix stimuli"
            )
        return (scheduler_name, sequence.label)

    def _disk_path(
        self, scheduler_name: str, sequence: EventSequence
    ) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        key_material = json.dumps(
            {
                "salt": CACHE_SALT,
                "scheduler": scheduler_name,
                "label": sequence.label,
                "sequence": sequence_fingerprint(sequence),
                "config": self._config_fingerprint,
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(key_material.encode("utf-8")).hexdigest()
        return self.cache_dir / f"{digest}.json"

    # -- disk tier ---------------------------------------------------------
    def _disk_load(
        self, scheduler_name: str, sequence: EventSequence
    ) -> Optional[List[AppResult]]:
        path = self._disk_path(scheduler_name, sequence)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            records = payload["results"]
            return [AppResult(**record) for record in records]
        except (ValueError, KeyError, TypeError) as error:
            raise ExperimentError(
                f"corrupt run-cache entry {path}: {error}; delete the file "
                "or call RunCache.invalidate(disk=True)"
            )

    def _disk_store(
        self,
        scheduler_name: str,
        sequence: EventSequence,
        results: List[AppResult],
    ) -> None:
        path = self._disk_path(scheduler_name, sequence)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "salt": CACHE_SALT,
            "scheduler": scheduler_name,
            "label": sequence.label,
            "config": asdict(self.config),
            "results": [asdict(result) for result in results],
        }
        # Atomic publish: concurrent workers/processes may race on the same
        # key; whoever replaces last wins with identical contents.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)

    # -- public API --------------------------------------------------------
    def results(
        self, scheduler_name: str, sequence: EventSequence
    ) -> List[AppResult]:
        """Results for one run: memory, then disk, then simulate."""
        key = self._key(scheduler_name, sequence)
        cached = self._runs.get(key)
        if cached is not None:
            self.memory_hits += 1
            return cached
        loaded = self._disk_load(scheduler_name, sequence)
        if loaded is not None:
            self.disk_hits += 1
            self._runs[key] = loaded
            return loaded
        results = run_sequence(
            scheduler_name, sequence, self.config, self.mode
        )
        self.simulations += 1
        self._runs[key] = results
        self._disk_store(scheduler_name, sequence, results)
        return results

    def combined(
        self, scheduler_name: str, sequences: Sequence[EventSequence]
    ) -> List[AppResult]:
        """Concatenated results across several sequences (stable order)."""
        combined: List[AppResult] = []
        for sequence in sequences:
            combined.extend(self.results(scheduler_name, sequence))
        return combined

    def prewarm(
        self,
        schedulers: Sequence[str],
        sequences: Sequence[EventSequence],
        jobs: Optional[int] = None,
    ) -> int:
        """Simulate every missing (scheduler, sequence) pair, in parallel.

        Pairs already in memory or on disk are skipped; the rest fan out
        over ``jobs`` worker processes (``None`` falls back to this cache's
        ``jobs``, then ``REPRO_JOBS``, then serial). Results land in both
        tiers, so subsequent ``results``/``combined`` calls are pure
        lookups. Returns the number of fresh simulations performed.

        Serial (``jobs=1``) and parallel execution run the same
        deterministic engine on identical inputs, so the cached results
        are independent of the worker count.
        """
        from repro.experiments import parallel

        pending: List[Tuple[Tuple[str, str], str, EventSequence]] = []
        seen_keys = set()
        for name in dict.fromkeys(schedulers):
            for sequence in sequences:
                key = self._key(name, sequence)
                if key in self._runs or key in seen_keys:
                    continue
                loaded = self._disk_load(name, sequence)
                if loaded is not None:
                    self.disk_hits += 1
                    self._runs[key] = loaded
                    continue
                seen_keys.add(key)
                pending.append((key, name, sequence))
        if not pending:
            return 0
        cells = [
            parallel.ClosedCell(
                name, sequence, config=self.config, mode=self.mode
            )
            for _, name, sequence in pending
        ]
        for (key, name, sequence), results in zip(
            pending,
            parallel.run_cells(cells, jobs=parallel.resolve_jobs(jobs, self)),
        ):
            self.simulations += 1
            self._runs[key] = results
            self._disk_store(name, sequence, results)
        return len(pending)

    def invalidate(self, disk: bool = False) -> None:
        """Drop the memory tier; with ``disk=True`` also delete every disk
        record under ``cache_dir``. Counters are preserved (they describe
        the cache's lifetime, not its current contents)."""
        self._runs.clear()
        self._label_fingerprints.clear()
        if disk and self.cache_dir is not None and self.cache_dir.exists():
            for path in self.cache_dir.glob("*.json"):
                path.unlink()


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain-text table with right-aligned numeric columns."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append(
            [
                f"{value:.2f}" if isinstance(value, float) else str(value)
                for value in row
            ]
        )
    widths = [
        max(len(row[col]) for row in cells) for col in range(len(headers))
    ]
    lines = []
    for index, row in enumerate(cells):
        line = "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        lines.append(line)
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
