"""Figure 2: the three sharing modes, rendered as board timelines.

The paper's Figure 2 contrasts (a) temporal multiplexing — tasks strictly
serialized, (b) task-parallel sharing — independent tasks space-share the
slots with batches bulk-processed, and (c) fine-grained sharing — tasks of
one application co-resident and pipelining across batch items.

We reproduce the contrast executably: the same two small applications run
under a one-slot serialized configuration, the bulk FCFS scheduler, and
the pipelined Nimblock scheduler; each run's slot-occupancy timeline and
makespan are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import SystemConfig
from repro.experiments.runner import run_closed
from repro.hypervisor.application import AppRequest
from repro.sim.timeline import render_timeline
from repro.taskgraph.builders import chain_graph

#: The three modes of Figure 2: (label, scheduler, slots).
MODES: Tuple[Tuple[str, str, int], ...] = (
    ("(a) temporal multiplexing", "fcfs", 1),
    ("(b) task-parallel sharing", "fcfs", 4),
    ("(c) fine-grained pipelined sharing", "nimblock", 4),
)


@dataclass(frozen=True)
class Fig2Result:
    """Timelines and makespans per sharing mode."""

    makespans_ms: Dict[str, float]
    timelines: Dict[str, str]

    def makespan(self, label: str) -> float:
        """Time until the last application retired in one mode."""
        return self.makespans_ms[label]


def _demo_requests() -> List[AppRequest]:
    """Two small chain applications arriving back to back."""
    first = chain_graph("appA", [100.0, 100.0])
    second = chain_graph("appB", [100.0, 100.0])
    return [
        AppRequest("appA", first, batch_size=3, priority=3, arrival_ms=0.0),
        AppRequest("appB", second, batch_size=3, priority=3, arrival_ms=10.0),
    ]


def run(settings=None, cache=None) -> Fig2Result:
    """Execute the demo workload under each sharing mode.

    Uniform experiment signature; the fixed two-app demo ignores
    ``settings`` and ``cache`` (its timelines read trace rows, so it
    runs full mode).
    """
    makespans: Dict[str, float] = {}
    timelines: Dict[str, str] = {}
    for label, scheduler, slots in MODES:
        config = SystemConfig(
            num_slots=slots, dispatch_overhead_ms=0.0,
        )
        hypervisor = run_closed(
            scheduler, _demo_requests(), label=label, config=config
        )
        makespans[label] = max(
            result.retire_ms for result in hypervisor.results()
        )
        timelines[label] = render_timeline(
            hypervisor.trace, num_slots=slots, width=72
        )
    return Fig2Result(makespans_ms=makespans, timelines=timelines)


def format_result(result: Fig2Result) -> str:
    """Figure 2 as annotated timelines."""
    blocks = ["Figure 2: sharing modes (A/B = application items, "
              "# = reconfiguration)"]
    for label, _, _ in MODES:
        blocks.append(
            f"\n{label} — makespan {result.makespan(label):.0f} ms\n"
            f"{result.timelines[label]}"
        )
    return "\n".join(blocks)
