"""Extension study: scale-out across a fleet of virtualized FPGAs (§1).

The cluster tier (:mod:`repro.cluster`) dispatches whole applications to
one of ``N`` Nimblock-scheduled boards. We sweep homogeneous zcu106
fleets from one to 64 boards under a heavy arrival stream and compare
placement policies on mean response, sharding board simulation over
the cache's ``jobs`` worker processes. :func:`run_fleets`, the
per-sequence fleet loop, is shared with the heterogeneous-fleet study
(``ext_hetero``).

Expected shapes: mean response improves steeply from one to two boards
and sub-linearly after (a fixed arrival stream can only be spread so
thin — past the knee every extra board mostly idles). The dispatch
policies trade blows: least-loaded (driven by the hypervisor's HLS work
estimates) isolates kilosecond outliers onto their own boards, while
round-robin's even spread can win on balanced streams — neither
dominates across workloads, which is itself the finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.cluster import BoardProfile, Cluster, fleet_profiles
from repro.experiments.runner import ExperimentSettings, RunCache, format_table
from repro.workload.scenarios import STRESS

#: Fleet sizes swept: 1 -> 64, doubling.
FLEET_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: Placement policies compared.
DISPATCH_POLICIES: Tuple[str, ...] = ("round_robin", "least_loaded")


@dataclass(frozen=True)
class FleetOutcome:
    """One fleet's results over a study's arrival streams."""

    #: Mean of the per-sequence mean responses (ms).
    mean_response_ms: float
    #: Applications placed on each board, summed over sequences.
    placements: Tuple[int, ...]
    #: Busy slot-time on each board (ms), summed over sequences.
    run_busy_ms: Tuple[float, ...]


def run_fleets(
    fleets: Mapping[Hashable, Tuple[Sequence[BoardProfile], str]],
    settings: ExperimentSettings,
    cache: RunCache,
    *,
    scheduler: str = "nimblock",
) -> Dict[Hashable, FleetOutcome]:
    """Run the study's stress streams on each ``(profiles, placement)``.

    Every sequence gets a fresh :class:`~repro.cluster.Cluster`, so
    fleets never share state. ``cache.jobs`` shards each run's board
    simulation and ``cache.mode`` picks its run mode; neither changes
    an outcome.
    """
    sequences = settings.sequences(STRESS)
    outcomes: Dict[Hashable, FleetOutcome] = {}
    for key, (profiles, placement) in fleets.items():
        responses: List[float] = []
        placed = [0] * len(profiles)
        busy = [0.0] * len(profiles)
        for sequence in sequences:
            fleet = Cluster(profiles, placement=placement,
                            scheduler=scheduler, seed=settings.base_seed)
            fleet.submit_sequence(sequence)
            report = fleet.run(jobs=cache.jobs, mode=cache.mode)
            for payload in report.boards:
                placed[payload["board"]] += payload["submitted"]
                busy[payload["board"]] += payload["run_busy_ms"]
            responses.append(report.sketch.mean)
        outcomes[key] = FleetOutcome(
            sum(responses) / len(responses), tuple(placed), tuple(busy)
        )
    return outcomes


@dataclass(frozen=True)
class ScaleOutResult:
    """Mean response per (fleet size, placement policy)."""

    scheduler: str
    mean_response_ms: Dict[Tuple[int, str], float]
    placements: Dict[Tuple[int, str], Tuple[int, ...]]

    def response(self, devices: int, dispatch: str) -> float:
        """Mean response (ms) for one fleet configuration."""
        return self.mean_response_ms[(devices, dispatch)]

    def speedup(self, devices: int, dispatch: str) -> float:
        """Improvement over the single-device fleet (same placement)."""
        return self.response(1, dispatch) / self.response(devices, dispatch)


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    scheduler: str = "nimblock",
    fleet_sizes: Tuple[int, ...] = FLEET_SIZES,
) -> ScaleOutResult:
    """Sweep fleet sizes and placement policies on one arrival stream."""
    outcomes = run_fleets(
        {
            (devices, dispatch): (
                fleet_profiles(devices, mix=("zcu106",)), dispatch
            )
            for devices in fleet_sizes
            for dispatch in DISPATCH_POLICIES
        },
        settings or ExperimentSettings.from_env(),
        cache or RunCache(),
        scheduler=scheduler,
    )
    return ScaleOutResult(
        scheduler=scheduler,
        mean_response_ms={k: o.mean_response_ms for k, o in outcomes.items()},
        placements={k: o.placements for k, o in outcomes.items()},
    )


def format_result(result: ScaleOutResult) -> str:
    """Extension table: fleet size vs mean response per placement."""
    headers = ["devices"] + [
        f"{d} resp (s)" for d in DISPATCH_POLICIES
    ] + [f"{d} speedup" for d in DISPATCH_POLICIES]
    rows: List[List[object]] = []
    sizes = sorted({devices for devices, _ in result.mean_response_ms})
    for devices in sizes:
        row: List[object] = [devices]
        row.extend(
            result.response(devices, dispatch) / 1000.0
            for dispatch in DISPATCH_POLICIES
        )
        row.extend(
            f"{result.speedup(devices, dispatch):.2f}x"
            for dispatch in DISPATCH_POLICIES
        )
        rows.append(row)
    title = (
        f"Extension: scale-out across virtualized FPGAs "
        f"({result.scheduler} per device)"
    )
    return f"{title}\n{format_table(headers, rows)}"
