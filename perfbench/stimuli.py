"""Choose the pool of ``paper_sweep`` stimuli (a maintenance script).

Usage, from the repository root::

    python3 perfbench/stimuli.py

A stimulus is a scenario-generator seed; the sweep runs each of its three
§5.1 scenarios under every scheduler. The script draws candidates from a
fixed stream and keeps the first ``CANDIDATES`` that fall inside two
bands around the medians of the generator's draws: +-5% of
:func:`batch_items` and about +-3% of :func:`estimated_work_s` (about one
draw in 110 qualifies). Unfiltered, one "dr"-heavy or large-batch
stimulus simulates three times the engine events or trace rows of a light
one. Inside the bands the CPU cost per application still ranges from
14% below to 17% above the median of the candidates, so the script times every candidate's grid of
simulations at reference host speed (see ``run.reference_op_s``),
interleaved over ``ROUNDS`` rounds so that slow host phases fall on all
candidates alike, and prints the ``KEEP`` candidates whose cost per
application lies closest to the median. That list is ``SWEEP_STIMULI``
in ``workloads.py``; a run draws its stimuli from it by its seed, so
runs at different seeds simulate different inputs of comparable cost.
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.catalog import get_benchmark  # noqa: E402
from repro.apps.hls import application_latency_estimate_ms  # noqa: E402
from repro.config import SystemConfig  # noqa: E402
from repro.workload.scenarios import (  # noqa: E402
    SCENARIOS,
    STANDARD,
    scenario_sequence,
)
from run import Reps, reference_op_s, repeat  # noqa: E402
from workloads import SWEEP_EVENTS, PaperSweep  # noqa: E402

CANDIDATES = 48
KEEP = 16
ROUNDS = 3
ITEMS_BAND = (2_930, 3_240)
WORK_BAND_S = (27_000.0, 28_650.0)


def estimated_work_s(stimulus: int) -> float:
    """Estimated simulated work of one stimulus over the three scenarios.

    The standard-scenario sequence's summed HLS application estimates
    plus, per scenario, the latest estimated finish (arrival + estimate),
    in seconds. On 28 sampled stimuli it predicted the engine event count
    of the 15-simulation grid to within 3% (r^2 = 0.99): events follow
    the serial work of the no-sharing baseline plus the makespan every
    sharing policy pays scheduling ticks for.
    """
    reconfig_ms = SystemConfig().reconfig_ms
    total_ms = 0.0
    for scenario in SCENARIOS:
        sequence = scenario_sequence(scenario, stimulus, SWEEP_EVENTS)
        estimates = [
            application_latency_estimate_ms(
                get_benchmark(event.benchmark).graph, event.batch_size,
                reconfig_ms,
            )
            for event in sequence
        ]
        if scenario is STANDARD:
            total_ms += sum(estimates)
        total_ms += max(
            event.arrival_ms + estimate
            for event, estimate in zip(sequence, estimates)
        )
    return total_ms / 1000.0


def batch_items(stimulus: int) -> int:
    """Task-items of one stimulus: batch size x task count, summed."""
    return sum(
        event.batch_size
        * len(get_benchmark(event.benchmark).graph.topological_order)
        for event in scenario_sequence(STANDARD, stimulus, SWEEP_EVENTS)
    )


def candidates(count: int = CANDIDATES):
    """The first ``count`` draws of a fixed stream inside both bands."""
    rng = random.Random("paper_sweep:candidates")
    chosen = []
    while len(chosen) < count:
        candidate = rng.randrange(1, 2**31)
        if (
            ITEMS_BAND[0] <= batch_items(candidate) <= ITEMS_BAND[1]
            and WORK_BAND_S[0] <= estimated_work_s(candidate)
            <= WORK_BAND_S[1]
        ):
            chosen.append(candidate)
    return chosen


def main() -> int:
    pool = candidates()
    grids = {s: PaperSweep(0, stimuli=[s]) for s in pool}
    grids[pool[0]].warm_up()
    timings = {stimulus: Reps(None) for stimulus in pool}
    for round_ in range(ROUNDS):
        for stimulus in pool:
            reps = repeat(grids[stimulus], 0.0, 1, None, [], reference=True)
            timings[stimulus].parts.extend(reps.parts)
            timings[stimulus].refs.extend(reps.refs)
        print(f"round {round_ + 1} of {ROUNDS} done", file=sys.stderr)
    cost = {
        stimulus: reference_op_s(timings[stimulus])
        / grids[stimulus].apps_per_op
        for stimulus in pool
    }
    middle = statistics.median(cost.values())
    kept = sorted(pool, key=lambda s: abs(cost[s] - middle))[:KEEP]
    for stimulus in pool:
        mark = "kept" if stimulus in kept else ""
        print(f"{stimulus:>10}  {cost[stimulus] * 1000:.3f} ms/app  {mark}")
    spread = [cost[s] / middle - 1.0 for s in kept]
    print(f"kept {KEEP} of {len(pool)}, within {min(spread):+.1%} .. "
          f"{max(spread):+.1%} of the median")
    print("SWEEP_STIMULI = (" + ", ".join(str(s) for s in sorted(kept)) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
