"""Table 1: slot and static-region utilization of the ZCU106 overlay.

Regenerated from the overlay resource model; also validates that ten
slots plus the static region actually fit the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.overlay.floorplan import Floorplan
from repro.overlay.resources import (
    RESOURCE_KINDS,
    SLOT_UTILIZATION_RANGE,
    STATIC_REGION_UTILIZATION,
)
from repro.experiments.runner import format_table


@dataclass(frozen=True)
class Table1Result:
    """Table 1 rows plus the floorplan feasibility check."""

    slot_range: Dict[str, Tuple[int, int]]
    static: Dict[str, int]
    device_utilization: Dict[str, float]
    floorplan_valid: bool


def run(
    settings=None,
    cache=None,
    *,
    num_slots: int = 10,
) -> Table1Result:
    """Build the overlay floorplan and report utilization.

    Uniform experiment signature; a static study, so ``settings``
    and ``cache`` are ignored.
    """
    plan = Floorplan.zcu106(num_slots=num_slots)
    plan.validate()
    report = plan.utilization_report()
    return Table1Result(
        slot_range=dict(SLOT_UTILIZATION_RANGE),
        static=STATIC_REGION_UTILIZATION.as_dict(),
        device_utilization=report["device_utilization"],
        floorplan_valid=True,
    )


def format_result(result: Table1Result) -> str:
    """Table 1 as text."""
    headers = ["region"] + list(RESOURCE_KINDS)
    slot_row: List[object] = ["Slot"] + [
        f"{low}-{high}" for low, high in (
            result.slot_range[kind] for kind in RESOURCE_KINDS
        )
    ]
    static_row: List[object] = ["Static"] + [
        result.static[kind] for kind in RESOURCE_KINDS
    ]
    util_row: List[object] = ["Device util"] + [
        f"{result.device_utilization[kind]:.0%}" for kind in RESOURCE_KINDS
    ]
    title = "Table 1: slot and static region utilization (ZCU106)"
    table = format_table(headers, [slot_row, static_row, util_row])
    return f"{title}\n{table}\nfloorplan fits device: {result.floorplan_valid}"
