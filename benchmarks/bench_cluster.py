"""Cluster bench: the fleet tier's sharded simulation and its guarantees.

Measures the 1 -> N board scaling sweep (`repro.experiments.ext_cluster`)
and proves the two determinism contracts on every run:

* a sharded (``--jobs N``) cluster run merges byte-identically to the
  serial run (down to the snapshot digest);
* a single-board fleet reproduces the bare hypervisor's trace
  byte-for-byte.

Standalone usage::

    # CI smoke: determinism contracts at reduced scale
    python benchmarks/bench_cluster.py --fast

    # deterministic sweep dump (CI diffs --jobs 1 vs --jobs 4 output)
    python benchmarks/bench_cluster.py --out cluster.json --jobs 4

    # timing run: appends a "cluster" entry to BENCH_sweep.json
    python benchmarks/bench_cluster.py --bench [--jobs N]

``--bench`` appends one ``"bench": "cluster"`` entry to the shared
``BENCH_sweep.json`` history (repo root) alongside the sweep harness's
own trajectory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from repro.experiments.runner import ExperimentSettings, RunCache

#: Shared trajectory file (discriminated by the per-entry "bench" field).
DEFAULT_BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
)

#: Scale of the standalone sweeps (kept small: every cell is a fleet).
FAST_FLEETS = (1, 2, 4)
FULL_FLEETS = (1, 2, 4, 8, 16)
BENCH_PLACEMENTS = ("round_robin", "least_loaded", "power_aware")


def cluster_payload(
    settings: ExperimentSettings,
    jobs: Optional[int],
    fleet_sizes=FAST_FLEETS,
) -> Dict:
    """Deterministic fleet-sweep JSON; byte-identical at any ``jobs``."""
    from repro.experiments import ext_cluster

    result = ext_cluster.run(
        settings=settings,
        cache=RunCache(jobs=jobs),
        fleet_sizes=fleet_sizes,
        placements=BENCH_PLACEMENTS,
    )
    return {
        "sweep": "fleet sizes x placement policies",
        "scheduler": result.scheduler,
        "rate": result.rate,
        "mix": list(result.mix),
        "fleet_sizes": list(result.fleet_sizes),
        "placements": list(result.placements),
        "throughput_items_per_s": {
            f"{size}/{placement}": result.throughput[(size, placement)]
            for size in result.fleet_sizes
            for placement in result.placements
        },
        "p99_ms": {
            f"{size}/{placement}": result.p99_ms[(size, placement)]
            for size in result.fleet_sizes
            for placement in result.placements
        },
        "snapshot_digests": {
            f"{size}/{placement}": result.digests[(size, placement)]
            for size in result.fleet_sizes
            for placement in result.placements
        },
    }


def render_payload(payload: Dict) -> str:
    """Canonical JSON text (byte-identical across identical sweeps)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def check_determinism(num_events: int = 8, jobs: int = 4) -> None:
    """The two cluster determinism contracts, asserted at small scale."""
    from repro.cluster import (
        Cluster,
        ZCU106_BOARD,
        board_label,
        fleet_profiles,
        trace_digest,
    )
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.schedulers.registry import make_scheduler
    from repro.workload.generator import EventGenerator

    events = EventGenerator(23).sequence(
        num_events=num_events, label="bench"
    )

    def fleet_run(jobs_value):
        fleet = Cluster(fleet_profiles(4), placement="least_loaded", seed=2)
        fleet.submit_sequence(events)
        return fleet.run(jobs=jobs_value)

    serial = fleet_run(1)
    sharded = fleet_run(jobs)
    assert serial.to_dict() == sharded.to_dict(), (
        "sharded cluster run diverged from serial"
    )
    assert serial.snapshot_digest() == sharded.snapshot_digest()

    single = Cluster((ZCU106_BOARD,))
    single.submit_sequence(events)
    report = single.run(jobs=1)
    bare = Hypervisor(
        make_scheduler("nimblock"), config=ZCU106_BOARD.system_config()
    )
    for spec in events:
        bare.submit(spec.to_request())
    bare.run()
    assert report.boards[0]["trace_digest"] == trace_digest(
        bare.trace, board_label(0)
    ), "single-board fleet diverged from the bare hypervisor"


# -- pytest-benchmark entry point -------------------------------------------
def test_cluster_scaling(benchmark, settings):
    from repro.experiments import ext_cluster

    from conftest import emit

    result = benchmark.pedantic(
        lambda: ext_cluster.run(
            settings=settings,
            fleet_sizes=FAST_FLEETS,
            placements=BENCH_PLACEMENTS,
        ),
        rounds=1, iterations=1,
    )
    biggest = result.fleet_sizes[-1]
    for placement in result.placements:
        assert result.scaling(placement)[-1] > 1.0, (
            f"{placement}: no throughput scaling at {biggest} boards"
        )
    check_determinism()
    emit(ext_cluster.format_result(result))


# -- standalone modes -------------------------------------------------------
def _bench(settings: ExperimentSettings, jobs: int, out: Path) -> int:
    print(
        f"cluster bench: fleets {FULL_FLEETS}, "
        f"{len(BENCH_PLACEMENTS)} placements, "
        f"{settings.num_events} events/board, jobs={jobs}"
    )
    start = time.perf_counter()
    serial = cluster_payload(settings, jobs=1, fleet_sizes=FULL_FLEETS)
    serial_s = time.perf_counter() - start
    print(f"serial cold:  {serial_s:8.2f}s")
    start = time.perf_counter()
    sharded = cluster_payload(settings, jobs=jobs, fleet_sizes=FULL_FLEETS)
    sharded_s = time.perf_counter() - start
    print(f"sharded cold: {sharded_s:8.2f}s")
    identical = render_payload(serial) == render_payload(sharded)
    assert identical, "sharded cluster sweep diverged from serial"
    check_determinism()

    entry = {
        "bench": "cluster",
        "recorded": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "scale": {
            "fleet_sizes": list(FULL_FLEETS),
            "placements": len(BENCH_PLACEMENTS),
            "events_per_board": settings.num_events,
        },
        "jobs": jobs,
        "cpus_available": len(os.sched_getaffinity(0)),
        "serial_cold_s": round(serial_s, 3),
        "sharded_cold_s": round(sharded_s, 3),
        "sharded_speedup": round(serial_s / sharded_s, 3),
        "sharded_matches_serial": identical,
        "top_throughput_items_per_s": max(
            serial["throughput_items_per_s"].values()
        ),
    }
    if out.exists():
        trajectory = json.loads(out.read_text(encoding="utf-8"))
    else:
        trajectory = {"bench": "sweep", "unit": "seconds", "history": []}
    trajectory["history"].append(entry)
    out.write_text(
        json.dumps(trajectory, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\nrecorded trajectory entry -> {out}")
    print(f"sharded speedup {entry['sharded_speedup']}x, "
          f"matches serial: {identical}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cluster bench: sharded fleet simulation."
    )
    parser.add_argument("--events", type=int, default=6,
                        help="events per board (default: 6)")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the deterministic fleet-sweep JSON here and exit",
    )
    parser.add_argument(
        "--bench", action="store_true",
        help="time serial/sharded sweeps and append to BENCH_sweep.json",
    )
    parser.add_argument(
        "--bench-out", default=str(DEFAULT_BENCH_PATH),
        help="trajectory file for --bench (default: BENCH_sweep.json)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="CI smoke: assert the determinism contracts and exit",
    )
    args = parser.parse_args(argv)

    from repro.experiments.parallel import effective_jobs

    jobs = effective_jobs(args.jobs)
    settings = ExperimentSettings(
        num_sequences=1, num_events=args.events
    )
    if args.fast:
        started = time.perf_counter()
        check_determinism(num_events=args.events, jobs=max(jobs, 2))
        print(
            "cluster smoke: sharded==serial and single-board==bare "
            f"hypervisor held ({time.perf_counter() - started:.1f}s)"
        )
        return 0
    if args.bench:
        return _bench(settings, jobs=max(jobs, 2), out=Path(args.bench_out))
    if args.out:
        payload = cluster_payload(settings, jobs=jobs)
        Path(args.out).write_text(
            render_payload(payload), encoding="utf-8"
        )
        print(f"{args.out}: fleets {payload['fleet_sizes']}, jobs={jobs}")
        return 0
    parser.error("choose a mode: --fast, --out FILE or --bench")
    return 2


if __name__ == "__main__":
    sys.exit(main())
