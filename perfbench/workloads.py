"""The benchmark's three workloads: seeded inputs, one timed operation, checks.

Each workload builds every input from its seed in ``__init__`` (the set-up
phase), runs one operation per :meth:`run` call on one thread with
``jobs=1``, and judges the operation's output in :meth:`check`, outside
the timed region. An operation made of independent parts calls
``split()`` after each part so the runner can time the parts separately.
All simulated quantities are exact for a given seed, so :meth:`check`
reduces them to a sha256 digest of a deterministic payload.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Optional, Tuple

from repro.cluster import Cluster
from repro.cluster.profiles import fleet_profiles
from repro.experiments.ext_overload import OVERLOAD_WORKLOAD, study_sequence
from repro.experiments.runner import RunCache
from repro.metrics.response import mean_reduction_factor
from repro.schedulers.registry import ALL_SCHEDULERS
from repro.service.loop import ServiceLoop
from repro.workload.arrivals import service_rate_process
from repro.workload.scenarios import SCENARIOS, scenario_sequence

#: Seeded 20-event stimuli per scenario in one ``paper_sweep`` operation.
SWEEP_SEQUENCES = 2
#: Events per sequence: the paper's §5.1 sequence length.
SWEEP_EVENTS = 20
#: Generator seeds of the sweep's stimuli, chosen by ``stimuli.py``: of
#: 48 seeds whose batch items and estimated work lie near the generator's
#: medians, the 16 whose grid costs closest to the median CPU time per
#: application. A run draws its stimuli from this pool by its seed, so
#: ``apps_per_s`` and ``peak_rss_mb`` compare across seeds.
SWEEP_STIMULI = (
    127180146, 556832783, 770304096, 816356954, 838010111, 916137450,
    981091184, 1257688437, 1284709500, 1309807367, 1460264116, 1502193235,
    1548163403, 1823109375, 1862228024, 2037232147,
)

#: Open-loop Poisson rate of ``serve_saturated``: the 1M-submission
#: drill's rate, which keeps the board saturated with shedding active.
SERVE_RATE_PER_S = 4.0
SERVE_SUBMISSIONS = 4000
SERVE_WINDOW_MS = 60_000.0

#: ``fleet_lowrate``: the ext-overload stream at 1x over 16 boards.
FLEET_BOARDS = 16
FLEET_ARRIVALS = 4000

#: Warm-up: one small operation fills the cross-run memos (lazy imports,
#: graph and estimate caches) before the first timed repetition. Its
#: inputs come from a fixed seed, so set-up cost does not vary with the
#: workload seed.
WARM_SEED = 0
WARM_SERVE_SUBMISSIONS = 200
WARM_FLEET_ARRIVALS = 200
WARM_SWEEP_EVENTS = 5


def sha256_json(payload) -> str:
    """sha256 over the canonical JSON dump of ``payload``."""
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_sequence_seeds(seed: int, count: int = SWEEP_SEQUENCES) -> List[int]:
    """Generator seeds of the grid's stimuli: ``count`` of the pool,
    drawn by ``seed``. Every scenario reuses the same stimuli, as the
    paper runs every scenario on the same events."""
    return random.Random(f"paper_sweep:{seed}").sample(SWEEP_STIMULI, count)


class PaperSweep:
    """Five schedulers x three scenarios x seeded stimuli, full mode.

    ``stimuli`` replaces the stimuli drawn by ``seed``; ``stimuli.py``
    times candidate stimuli one by one this way.
    """

    name = "paper_sweep"

    def __init__(self, seed: int, stimuli: Optional[List[int]] = None) -> None:
        if stimuli is None:
            stimuli = sweep_sequence_seeds(seed)
        self.by_scenario = {
            scenario.name: [
                scenario_sequence(scenario, stimulus, SWEEP_EVENTS)
                for stimulus in stimuli
            ]
            for scenario in SCENARIOS
        }
        self.sequences = [
            sequence
            for sequences in self.by_scenario.values()
            for sequence in sequences
        ]
        #: Each (scheduler, app) pair counts once.
        self.apps_per_op = len(ALL_SCHEDULERS) * sum(
            len(sequence) for sequence in self.sequences
        )

    def warm_up(self) -> None:
        cache = RunCache(jobs=1, mode="full")
        cache.prewarm(
            ALL_SCHEDULERS,
            [scenario_sequence(SCENARIOS[-1], WARM_SEED, WARM_SWEEP_EVENTS)],
            jobs=1,
        )

    def run(self, split):
        """Simulate the grid through a fresh memory-only run cache.

        Each (scheduler, sequence) simulation is one timed part, in the
        order ``RunCache.prewarm`` runs them.
        """
        cache = RunCache(jobs=1, mode="full")
        for scheduler in ALL_SCHEDULERS:
            for sequence in self.sequences:
                cache.results(scheduler, sequence)
                split()
        responses: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
        for scenario, sequences in self.by_scenario.items():
            responses[scenario] = {
                scheduler: {
                    sequence.label: [
                        result.response_ms
                        for result in cache.results(scheduler, sequence)
                    ]
                    for sequence in sequences
                }
                for scheduler in ALL_SCHEDULERS
            }
        return cache, responses

    def check(self, output) -> Tuple[str, List[str], Dict[str, tuple]]:
        cache, responses = output
        problems = []
        expected = len(ALL_SCHEDULERS) * len(self.sequences)
        if cache.simulations != expected:
            problems.append(
                f"{cache.simulations} simulations, expected {expected}"
            )
        for scenario, sequences in self.by_scenario.items():
            for scheduler in ALL_SCHEDULERS:
                for sequence in sequences:
                    retired = len(responses[scenario][scheduler][sequence.label])
                    if retired != len(sequence):
                        problems.append(
                            f"{scheduler}/{sequence.label}: retired "
                            f"{retired} of {len(sequence)} submitted"
                        )
        reduction = mean_reduction_factor(
            cache.combined("baseline", self.sequences),
            cache.combined("nimblock", self.sequences),
        )
        simulated = {
            "nimblock_reduction_x": (reduction, "x"),
            "sequences": (len(self.sequences), "count"),
        }
        return sha256_json(responses), problems, simulated

    def counters(self, output) -> Dict[str, int]:
        """Counters the program exposes, for the traced-run comparison."""
        return {"simulations": output[0].simulations}


class ServeSaturated:
    """One service loop under seeded Poisson arrivals at the drill rate."""

    name = "serve_saturated"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.arrivals = service_rate_process(SERVE_RATE_PER_S, seed=seed)
        self.apps_per_op = SERVE_SUBMISSIONS

    def _loop(self, arrivals, seed: int, submissions: int) -> ServiceLoop:
        return ServiceLoop(
            arrivals,
            "nimblock",
            admission="shed",
            seed=seed,
            max_submissions=submissions,
            window_ms=SERVE_WINDOW_MS,
            mode="metrics",
        )

    def warm_up(self) -> None:
        arrivals = service_rate_process(SERVE_RATE_PER_S, seed=WARM_SEED)
        self._loop(arrivals, WARM_SEED, WARM_SERVE_SUBMISSIONS).run()

    def run(self, split):
        return self._loop(self.arrivals, self.seed, SERVE_SUBMISSIONS).run()

    def check(self, report) -> Tuple[str, List[str], Dict[str, tuple]]:
        problems = []
        if report.arrived != SERVE_SUBMISSIONS:
            problems.append(
                f"{report.arrived} arrived of {SERVE_SUBMISSIONS} submitted"
            )
        if report.completed + report.shed + report.dropped != report.arrived:
            problems.append(
                f"ledger: {report.completed} completed + {report.shed} shed"
                f" + {report.dropped} dropped != {report.arrived} arrived"
            )
        simulated = {
            "sim_p50_s": (report.p(50.0) / 1000.0, "s"),
            "sim_p99_s": (report.p(99.0) / 1000.0, "s"),
            "completed": (report.completed, "count"),
            "loss_frac": (report.loss_frac, "fraction"),
        }
        return sha256_json(report.to_dict()), problems, simulated

    def counters(self, report) -> Dict[str, int]:
        """Counters the program exposes, for the traced-run comparison."""
        return {
            "engine_events": report.engine_events,
            "replay_hits": report.replay_hits,
            "replay_misses": report.replay_misses,
            "windows_closed": report.windows_closed,
        }


class FleetLowrate:
    """A 16-board least-loaded cluster fed the 1x ext-overload stream."""

    name = "fleet_lowrate"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.profiles = fleet_profiles(FLEET_BOARDS)
        self.sequence = study_sequence(
            OVERLOAD_WORKLOAD, seed, FLEET_ARRIVALS, 1.0
        )
        self.apps_per_op = len(self.sequence)

    def _run(self, sequence, seed: int):
        cluster = Cluster(
            self.profiles,
            placement="least_loaded",
            scheduler="nimblock",
            seed=seed,
        )
        cluster.submit_sequence(sequence)
        report = cluster.run(jobs=1, mode="metrics")
        return cluster, report, report.snapshot_digest()

    def warm_up(self) -> None:
        self._run(
            study_sequence(
                OVERLOAD_WORKLOAD, WARM_SEED, WARM_FLEET_ARRIVALS, 1.0
            ),
            WARM_SEED,
        )

    def run(self, split):
        """Placement, board simulation and report merge, as one part."""
        return self._run(self.sequence, self.seed)

    def check(self, output) -> Tuple[str, List[str], Dict[str, tuple]]:
        cluster, report, digest = output
        problems = []
        submitted = len(self.sequence)
        boundary = report.admission_stats
        if boundary.submitted != submitted or report.submitted != submitted:
            problems.append(
                f"boundary saw {boundary.submitted}, boards "
                f"{report.submitted}, of {submitted} submitted"
            )
        dropped = sum(board["dropped"] for board in report.boards)
        if report.retired + report.shed + dropped != report.submitted:
            problems.append(
                f"ledger: {report.retired} retired + {report.shed} shed + "
                f"{dropped} dropped != {report.submitted} submitted"
            )
        if len(cluster.decisions) != submitted:
            problems.append(
                f"{len(cluster.decisions)} placements of {submitted}"
            )
        simulated = {
            "sim_p50_s": (report.quantile_ms(0.5) / 1000.0, "s"),
            "sim_p99_s": (report.quantile_ms(0.99) / 1000.0, "s"),
            "completed": (report.retired, "count"),
        }
        return digest, problems, simulated

    def counters(self, output) -> Dict[str, int]:
        """Counters the program exposes, for the traced-run comparison."""
        return {"placements": len(output[0].decisions)}


WORKLOADS = {
    workload.name: workload
    for workload in (PaperSweep, ServeSaturated, FleetLowrate)
}
