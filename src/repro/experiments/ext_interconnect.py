"""Extension study: PS-routed vs NoC inter-slot transfers (paper §7).

The paper's future work proposes a Network-on-Chip because the prototype
routes all inter-slot data through the ARM core. This experiment re-runs a
stress workload under Nimblock with transfer costs modeled explicitly and
compares three interconnects: free transfers (the reproduction default,
transfer folded into task latencies), PS-routed, and a NoC.

Expected shape: PS routing inflates response times relative to the free
model — the penalty the prototype silently pays inside its measured task
latencies — while the NoC recovers almost all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import (
    ExperimentSettings,
    format_table,
)
from repro.hypervisor.hypervisor import Hypervisor
from repro.overlay.interconnect import make_interconnect
from repro.schedulers.registry import make_scheduler
from repro.workload.generator import EventGenerator
from repro.workload.scenarios import STRESS

#: Interconnect models compared, in report order.
INTERCONNECTS: Tuple[str, ...] = ("zero_cost", "ps_routed", "noc")

#: Transfer-sensitive benchmarks: per-task latencies within an order of
#: magnitude of a megabyte-scale PS transfer. Digit recognition's 65 s
#: items would drown the effect entirely.
STUDY_BENCHMARKS: Tuple[str, ...] = ("imgc", "lenet", "3dr")


@dataclass(frozen=True)
class InterconnectResult:
    """Mean response per interconnect model under one workload."""

    scheduler: str
    mean_response_ms: Dict[str, float]

    def overhead_vs_free(self, model: str) -> float:
        """Mean response relative to free transfers (1.0 = no penalty)."""
        return self.mean_response_ms[model] / self.mean_response_ms["zero_cost"]


#: Inter-task activation payload for the study. Much larger than the
#: bookkeeping default: vision-pipeline activations are megabytes, which
#: is what makes PS-routed transfers visible against task latencies.
STUDY_PAYLOAD_BYTES = 8 * 1024 * 1024


def run(
    settings: Optional[ExperimentSettings] = None,
    cache=None,  # accepted for harness uniformity; runs are not cacheable
    *,
    scheduler: str = "nimblock",
) -> InterconnectResult:
    """Run the same stimuli under each interconnect model."""
    settings = settings or ExperimentSettings.from_env()
    sequences = [
        EventGenerator(seed, benchmarks=STUDY_BENCHMARKS).sequence(
            num_events=settings.num_events,
            delay_range_ms=STRESS.delay_range_ms,
            label=f"interconnect-n{settings.num_events}-seed{seed}",
        )
        for seed in settings.seeds()
    ]
    means: Dict[str, float] = {}
    for model_name in INTERCONNECTS:
        responses: List[float] = []
        for sequence in sequences:
            # Not run_closed: the only run setting interconnect/buffers.
            hypervisor = Hypervisor(
                make_scheduler(scheduler),
                interconnect=make_interconnect(model_name),
                item_buffer_bytes=STUDY_PAYLOAD_BYTES,
                buffer_capacity_bytes=256 * 1024**3,
            )
            for request in sequence.to_requests():
                hypervisor.submit(request)
            hypervisor.run()
            responses.extend(
                result.response_ms for result in hypervisor.results()
            )
        means[model_name] = sum(responses) / len(responses)
    return InterconnectResult(scheduler=scheduler, mean_response_ms=means)


def format_result(result: InterconnectResult) -> str:
    """Extension table: interconnect vs mean response."""
    headers = ["interconnect", "mean response (s)", "vs free"]
    rows: List[List[object]] = []
    for model in INTERCONNECTS:
        rows.append(
            [
                model,
                result.mean_response_ms[model] / 1000.0,
                f"{result.overhead_vs_free(model):.3f}x",
            ]
        )
    title = (
        f"Extension: inter-slot interconnect models under "
        f"{result.scheduler} (stress workload)"
    )
    return f"{title}\n{format_table(headers, rows)}"
