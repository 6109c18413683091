"""Extension study: fleet scaling of the cluster tier (1 -> 64 boards).

The headline question for the ROADMAP's production north-star: if the
ext-overload burst workload grows with the fleet (offered load and
arrival rate both scale linearly with the board count), does fleet
throughput scale and does the p99 response stay flat?

Every fleet size runs the same per-board offered load — ``num_events``
and the arrival-rate multiplier both scale with ``num_boards`` — so
ideal scaling is a straight throughput line and a horizontal p99. What
bends the lines is the tier itself: placement skew, heterogeneous board
capability (the default fleet mix rotates zcu106/edge/hpc profiles) and
per-board power envelopes under ``power_aware`` placement.

Board simulation is sharded over the cache's ``jobs`` worker processes
by the cluster tier; any ``jobs`` value produces byte-identical merged
snapshots, so the study's numbers are jobs-invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import DEFAULT_FLEET_MIX, PLACEMENT_POLICIES
from repro.errors import ExperimentError
from repro.experiments.ext_overload import OVERLOAD_WORKLOAD, study_sequence
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.facade import fleet

#: Fleet sizes swept: 1 -> 64 boards, doubling.
FLEET_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: Arrival-rate multiplier of the burst, per board. 4x is the
#: ext-overload acceptance stress point.
DEFAULT_RATE: float = 4.0


@dataclass(frozen=True)
class ClusterStudyResult:
    """Throughput and tail-latency scaling per (fleet size, placement)."""

    scheduler: str
    rate: float
    mix: Tuple[str, ...]
    fleet_sizes: Tuple[int, ...]
    placements: Tuple[str, ...]
    #: Fleet throughput, batch items per second, per (size, placement).
    throughput: Dict[Tuple[int, str], float]
    #: Merged p99 response, ms, per (size, placement).
    p99_ms: Dict[Tuple[int, str], float]
    #: Merged p50 response, ms, per (size, placement).
    p50_ms: Dict[Tuple[int, str], float]
    #: Retired applications per (size, placement).
    retired: Dict[Tuple[int, str], int]
    #: Estimated fleet energy, joules, per (size, placement).
    energy_j: Dict[Tuple[int, str], float]
    #: Merged snapshot digests per (size, placement) — the determinism
    #: witness the CI job diffs across ``--jobs`` values.
    digests: Dict[Tuple[int, str], str]

    def scaling(self, placement: str) -> List[float]:
        """Throughput normalized to the single-board fleet."""
        base = self.throughput[(self.fleet_sizes[0], placement)]
        return [
            self.throughput[(size, placement)] / base if base > 0 else 0.0
            for size in self.fleet_sizes
        ]


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    scheduler: str = "nimblock",
    placements: Sequence[str] = PLACEMENT_POLICIES,
    fleet_sizes: Sequence[int] = FLEET_SIZES,
    rate: float = DEFAULT_RATE,
    mix: Sequence[str] = DEFAULT_FLEET_MIX,
    events_per_board: Optional[int] = None,
) -> ClusterStudyResult:
    """Sweep fleet sizes and placement policies under the burst workload.

    ``events_per_board`` defaults to ``settings.num_events`` (so a fleet
    of N boards faces ``N * num_events`` arrivals at ``N * rate`` times
    the nominal arrival rate — constant offered load per board).
    ``cache`` contributes only its fan-out width: cluster cells carry
    placement state that the run cache's keys do not encode.
    """
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    if not placements:
        raise ExperimentError("placements must be non-empty")
    if not fleet_sizes:
        raise ExperimentError("fleet_sizes must be non-empty")
    if events_per_board is None:
        events_per_board = settings.num_events

    throughput: Dict[Tuple[int, str], float] = {}
    p99: Dict[Tuple[int, str], float] = {}
    p50: Dict[Tuple[int, str], float] = {}
    retired: Dict[Tuple[int, str], int] = {}
    energy: Dict[Tuple[int, str], float] = {}
    digests: Dict[Tuple[int, str], str] = {}
    for num_boards in fleet_sizes:
        sequence = study_sequence(
            OVERLOAD_WORKLOAD,
            settings.base_seed,
            events_per_board * num_boards,
            rate * num_boards,
        )
        for placement in placements:
            # Full mode whatever cache.mode says: digests hash board rows.
            report = fleet(
                num_boards,
                placement=placement,
                scheduler=scheduler,
                mix=tuple(mix),
                seed=settings.base_seed,
                sequence=sequence,
                jobs=cache.jobs,
            )
            key = (num_boards, placement)
            throughput[key] = report.throughput_items_per_s
            p99[key] = report.quantile_ms(0.99)
            p50[key] = report.quantile_ms(0.50)
            retired[key] = report.retired
            energy[key] = report.energy_j
            digests[key] = report.snapshot_digest()
    return ClusterStudyResult(
        scheduler=scheduler,
        rate=rate,
        mix=tuple(mix),
        fleet_sizes=tuple(fleet_sizes),
        placements=tuple(placements),
        throughput=throughput,
        p99_ms=p99,
        p50_ms=p50,
        retired=retired,
        energy_j=energy,
        digests=digests,
    )


def format_result(result: ClusterStudyResult) -> str:
    """Scaling tables: throughput (and speedup) plus p99 per placement."""
    blocks = []
    headers = ["boards"] + [
        f"{p} (items/s)" for p in result.placements
    ] + [f"{p} scaling" for p in result.placements]
    scalings = {p: result.scaling(p) for p in result.placements}
    rows: List[List[object]] = []
    for row_index, size in enumerate(result.fleet_sizes):
        row: List[object] = [size]
        row.extend(
            result.throughput[(size, p)] for p in result.placements
        )
        row.extend(
            f"{scalings[p][row_index]:.2f}x" for p in result.placements
        )
        rows.append(row)
    blocks.append(
        f"Extension: cluster throughput scaling ({result.scheduler} per "
        f"board, {'/'.join(result.mix)} mix, {result.rate:g}x burst per "
        "board)\n" + format_table(headers, rows)
    )

    headers = ["boards"] + [
        f"{p} p99 (s)" for p in result.placements
    ]
    rows = []
    for size in result.fleet_sizes:
        rows.append([size] + [
            result.p99_ms[(size, p)] / 1000.0 for p in result.placements
        ])
    blocks.append(
        "Extension: cluster p99 response under per-board-constant burst "
        "load\n" + format_table(headers, rows)
    )
    return "\n\n".join(blocks)
