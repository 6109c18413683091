#!/usr/bin/env python3
"""Scale-out: one arrival stream across a growing FPGA fleet.

The paper names scale-out as a core virtualization feature (§1). This
example replays the same stress-test arrival stream against fleets of one
to four virtualized FPGAs (each running its own Nimblock scheduler) and
compares two placement policies of the cluster tier (``repro.cluster``).

Run:
    python examples/scaleout_cluster.py
"""

from __future__ import annotations

from repro import STRESS, scenario_sequence
from repro.cluster import Cluster, fleet_profiles

DISPATCH_POLICIES = ("round_robin", "least_loaded")


def run_fleet(num_devices: int, dispatch: str, sequence):
    cluster = Cluster(
        fleet_profiles(num_devices, mix=("zcu106",)), placement=dispatch
    )
    cluster.submit_sequence(sequence)
    return cluster.run()


def main() -> None:
    sequence = scenario_sequence(STRESS, seed=7, num_events=20)
    print(
        f"stress stream: {len(sequence)} applications over "
        f"{sequence.span_ms / 1000:.1f} s "
        f"({', '.join(sequence.benchmarks_used())})\n"
    )

    print(f"{'devices':>8s}" + "".join(
        f"{d + ' (s)':>20s}{'placement':>14s}" for d in DISPATCH_POLICIES
    ))
    print("-" * (8 + 34 * len(DISPATCH_POLICIES)))
    for devices in (1, 2, 3, 4):
        row = f"{devices:8d}"
        for dispatch in DISPATCH_POLICIES:
            report = run_fleet(devices, dispatch, sequence)
            mean_s = report.sketch.mean / 1000.0
            placement = "/".join(
                str(payload["submitted"]) for payload in report.boards
            )
            row += f"{mean_s:20.1f}{placement:>14s}"
        print(row)

    print(
        "\nleast-loaded placement uses the hypervisor's HLS-based work "
        "estimates, so kilosecond applications (digit recognition) land "
        "alone while short applications pack together."
    )


if __name__ == "__main__":
    main()
