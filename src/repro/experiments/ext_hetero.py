"""Extension study: heterogeneous fleets (Hetero-ViTAL's setting, §6.1).

Hetero-ViTAL extends slot virtualization across *heterogeneous classes of
devices*. This study puts the cluster tier in that setting: the same
arrival stream runs on (a) one big board, (b) a homogeneous pair of big
boards, and (c) a heterogeneous pair — one big datacenter-class board
(:data:`~repro.cluster.ZCU106_BOARD`) plus one small edge-class board
(:data:`~repro.cluster.EDGE_BOARD`, fewer slots and slower
reconfiguration). Every fleet is placed ``least_loaded`` through the
fleet loop shared with ``ext_scaleout``.

Expected shapes: the heterogeneous pair lands between the single board
and the homogeneous pair (the small board adds real capacity), and
capability-normalized least-loaded placement puts most of the work —
busy slot-time — on the big board. It need not put most of the
*applications* there: the rule compares each board's per-slot backlog
after adding the arriving application, so short applications fill the
edge board while the big board takes the long ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster import EDGE_BOARD, ZCU106_BOARD, BoardProfile
from repro.experiments.ext_scaleout import run_fleets
from repro.experiments.runner import ExperimentSettings, RunCache, format_table

#: Fleet definitions: name -> board profiles (the big board is zcu106).
FLEETS: Dict[str, Tuple[BoardProfile, ...]] = {
    "1x big": (ZCU106_BOARD,),
    "2x big": (ZCU106_BOARD, ZCU106_BOARD),
    "big + edge": (ZCU106_BOARD, EDGE_BOARD),
}


@dataclass(frozen=True)
class HeteroResult:
    """Mean response, placement balance and busy time per fleet."""

    fleets: Tuple[str, ...]
    mean_response_ms: Dict[str, float]
    placements: Dict[str, Tuple[int, ...]]
    #: Busy slot-time per board (ms), summed over sequences.
    run_busy_ms: Dict[str, Tuple[float, ...]]

    def response(self, fleet: str) -> float:
        """Fleet-wide mean response (ms)."""
        return self.mean_response_ms[fleet]

    def big_busy_share(self, fleet: str) -> float:
        """Fraction of the fleet's busy slot-time spent on big boards."""
        busy = self.run_busy_ms[fleet]
        big = sum(
            ms for profile, ms in zip(FLEETS[fleet], busy)
            if profile == ZCU106_BOARD
        )
        return big / sum(busy)


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    scheduler: str = "nimblock",
) -> HeteroResult:
    """Run the arrival stream on each fleet definition."""
    outcomes = run_fleets(
        {name: (fleet, "least_loaded") for name, fleet in FLEETS.items()},
        settings or ExperimentSettings.from_env(),
        cache or RunCache(),
        scheduler=scheduler,
    )
    return HeteroResult(
        fleets=tuple(FLEETS),
        mean_response_ms={k: o.mean_response_ms for k, o in outcomes.items()},
        placements={k: o.placements for k, o in outcomes.items()},
        run_busy_ms={k: o.run_busy_ms for k, o in outcomes.items()},
    )


def format_result(result: HeteroResult) -> str:
    """Heterogeneous-fleet table."""
    headers = ["fleet", "mean response (s)", "placement", "busy on big"]
    rows: List[List[object]] = []
    for fleet in result.fleets:
        rows.append(
            [
                fleet,
                result.response(fleet) / 1000.0,
                "/".join(str(c) for c in result.placements[fleet]),
                f"{result.big_busy_share(fleet):.0%}",
            ]
        )
    title = (
        "Extension: heterogeneous fleets (big = 10 slots/80 ms, "
        "edge = 4 slots/120 ms; capability-normalized placement)"
    )
    return f"{title}\n{format_table(headers, rows)}"
