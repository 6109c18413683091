"""Core bench: raw simulation throughput in apps and events per second.

Where ``bench_sweep`` times the experiment *harness* (cache, process
fan-out), this bench isolates the simulation *core*: the event heap, the
hypervisor decision passes and the trace recorder. The rates reported
(schema 4 entries in BENCH_core.json; schema 3 added the apps/sec
rates, schema 4 the fleet rate):

* **engine schedule/sec** and **engine fire/sec** — an empty-callback
  timer storm through the raw array-native
  :meth:`~repro.sim.engine.SimulationEngine.schedule` path, with the
  enqueue phase and the dispatch (``run``) phase timed separately. The
  fire rate is the per-event overhead floor of the heap itself and the
  number held to the >=1M events/sec target;
* **sim apps/sec** and **sim events/sec** (``mode="full"``), and their
  ``mode="metrics"`` twins — full hypervisor simulations (every
  registry scheduler over deterministic generated sequences), counting
  the applications retired and the events the engine actually
  processed. Both modes run the same sequences, so each pair doubles
  as a coarse mode-overhead comparison;
* **fleet apps/sec** — a fixed 16-board least-loaded cluster at the 1x
  ext-overload rate in metrics mode, where boards drain between
  arrivals and the replay cache serves most of them: the one guarded
  rate that depends on replay hits being cheap.

Standalone usage::

    # print all rates at the default scale
    python benchmarks/bench_core.py

    # append a trajectory entry to BENCH_core.json (repo root)
    python benchmarks/bench_core.py --bench

    # CI regression guard: fail if any guarded rate drops >30% below
    # the last committed BENCH_core.json entry
    python benchmarks/bench_core.py --guard

The guard compares *rates*, not totals. Per-run fixed costs make the
rate scale-sensitive, so CI guards at the same (default) scale the
committed baseline was recorded at; the 30% tolerance absorbs
machine-to-machine noise while still catching the order-of-magnitude
regressions the optimization work targets. The simulations are guarded
on retired applications per second: the grid's work is fixed, while
its event count falls whenever the simulator stops firing events it
does not need, so an events/sec floor would read such a speed-up as a
slowdown. Guarded keys the baseline entry predates are skipped, so the
guard works against both old and new baselines. For a per-layer split
of where the time goes, use ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.hypervisor.hypervisor import Hypervisor
from repro.schedulers.registry import ALL_SCHEDULERS, make_scheduler
from repro.workload.generator import EventGenerator

#: Default output of ``--bench`` mode: the core bench trajectory.
DEFAULT_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: Maximum tolerated drop in any guarded rate before --guard fails.
GUARD_TOLERANCE = 0.30

#: Rate keys --guard compares when the baseline entry carries them.
#: The simulations are held on work done (retired applications per
#: second); their events/sec rates are recorded and printed only.
GUARD_KEYS = (
    "sim_apps_per_sec",
    "sim_metrics_apps_per_sec",
    "fleet_apps_per_sec",
    "engine_fire_events_per_sec",
)

#: Scale of the fleet rate: ``perfbench``'s ``fleet_lowrate`` at half
#: its arrivals. Fixed (``--fast`` does not shrink it), so every entry
#: times the same work.
FLEET_BOARDS = 16
FLEET_ARRIVALS = 2000
FLEET_SEED = 1

#: Scale of the service-tier guard proxy: a metrics-mode service run
#: small enough for CI but long enough to reach replay steady state.
#: Guarded only when the committed ``service_history`` carries a
#: schema-3 entry recorded at exactly this scale (older baselines are
#: skipped, keeping --guard backward-compatible).
SERVICE_GUARD_SUBMISSIONS = 20_000
SERVICE_GUARD_RATE_PER_S = 4.0
SERVICE_GUARD_MODE = "metrics"

#: Rate keys guarded in the matching service_history baseline entry.
SERVICE_GUARD_KEYS = ("engine_events_per_sec",)


def _service_guard_baseline(trajectory: Dict) -> Dict:
    """Latest schema-3 service entry recorded at the guard scale."""
    for entry in reversed(trajectory.get("service_history", [])):
        scale = entry.get("scale", {})
        if (
            entry.get("schema", 0) >= 3
            and entry.get("mode") == SERVICE_GUARD_MODE
            and scale.get("submissions") == SERVICE_GUARD_SUBMISSIONS
            and scale.get("rate_per_s") == SERVICE_GUARD_RATE_PER_S
        ):
            return entry
    return {}

#: Timer events for the raw-engine measurement.
ENGINE_STORM_EVENTS = 200_000


def engine_storm(num_events: int = ENGINE_STORM_EVENTS) -> Dict:
    """Raw engine throughput with the two phases timed separately.

    The storm goes through the raw array-native ``schedule`` path (plain
    4-tuple entries, no handle allocation) — the same path the
    hypervisor's hot loop uses. Returns per-phase and combined
    events/sec: ``schedule`` is pure enqueue cost, ``fire`` is the heap
    pop + dispatch cost of ``run()``. Event arguments are materialized
    before the clock starts so the timed region holds only engine work,
    not the bench's own arithmetic.
    """
    from repro.sim.engine import SimulationEngine

    engine = SimulationEngine()

    def noop(now: float) -> None:
        pass

    # Interleave two priorities so heap sifts exercise the tuple compare.
    events = [(float(i % 1024), i & 1) for i in range(num_events)]
    schedule = engine.schedule
    start = time.perf_counter()
    for event_time, priority in events:
        schedule(event_time, noop, priority)
    scheduled = time.perf_counter()
    engine.run()
    fired = time.perf_counter()
    assert engine.processed == num_events
    schedule_s = scheduled - start
    fire_s = fired - scheduled
    return {
        "engine_schedule_events_per_sec": round(num_events / schedule_s),
        "engine_fire_events_per_sec": round(num_events / fire_s),
        "engine_events_per_sec": round(num_events / (fired - start)),
    }


class _StubApp:
    """Minimal stand-in carrying the attributes PendingQueue touches."""

    __slots__ = ("app_id", "age_key", "first_item_start_ms")

    def __init__(self, app_id: int) -> None:
        self.app_id = app_id
        self.age_key = (float(app_id), app_id)
        self.first_item_start_ms = None


def queue_removal_per_op(num_apps: int) -> float:
    """Seconds per PendingQueue removal at the given queue size.

    Fills the queue, then removes every app oldest-first — the worst case
    for the old ``list.remove`` implementation, which shifted the whole
    tail on each call. With tombstoned removal the per-op cost must stay
    flat as the queue grows.
    """
    from repro.hypervisor.queues import PendingQueue

    queue = PendingQueue()
    for app_id in range(num_apps):
        queue.add(_StubApp(app_id))
    start = time.perf_counter()
    for app_id in range(num_apps):
        queue.remove(app_id)
    elapsed = time.perf_counter() - start
    queue.self_check()
    assert len(queue) == 0
    return elapsed / num_apps


#: Queue sizes compared by the O(1)-removal scaling assertion, and the
#: maximum tolerated per-op growth between them. A 10x larger queue costs
#: ~10x per removal under the old O(n) implementation; amortized O(1)
#: keeps the ratio near 1, and 4.0 absorbs timer noise.
QUEUE_SCALING_SIZES = (4_000, 40_000)
QUEUE_SCALING_MAX_RATIO = 4.0


def queue_scaling() -> Dict:
    """Measure removal cost at both sizes and assert O(1) scaling."""
    small, large = QUEUE_SCALING_SIZES
    queue_removal_per_op(small)  # warm-up
    small_s = min(queue_removal_per_op(small) for _ in range(3))
    large_s = min(queue_removal_per_op(large) for _ in range(3))
    ratio = large_s / small_s
    assert ratio <= QUEUE_SCALING_MAX_RATIO, (
        f"PendingQueue.remove is not O(1): {large:,}-app removals cost "
        f"{ratio:.1f}x the per-op time of {small:,}-app removals "
        f"(limit {QUEUE_SCALING_MAX_RATIO}x)"
    )
    return {
        "queue_remove_ns_small": round(small_s * 1e9, 1),
        "queue_remove_ns_large": round(large_s * 1e9, 1),
        "queue_remove_scaling": round(ratio, 3),
    }


def _sequences(num_sequences: int, num_events: int) -> List:
    return [
        EventGenerator(
            1000 + seed, benchmarks=("lenet", "imgc", "3dr", "of")
        ).sequence(
            num_events=num_events,
            delay_range_ms=(100.0, 400.0),
            batch_range=(2, 6),
            label=f"core-{seed}",
        )
        for seed in range(num_sequences)
    ]


def sim_throughput(
    num_sequences: int, num_events: int, mode: str = "full"
) -> Tuple[int, int, float]:
    """Full-simulation work over every registry scheduler.

    Returns ``(retired_apps, total_engine_events, wall_seconds)``.
    The two run modes process identical event counts (pinned by
    ``tests/test_mode_equivalence.py``), so their rates compare the
    per-event trace cost directly.
    """
    sequences = _sequences(num_sequences, num_events)
    requests = [seq.to_requests() for seq in sequences]
    total_apps = 0
    total_events = 0
    start = time.perf_counter()
    for name in ALL_SCHEDULERS:
        for reqs in requests:
            hv = Hypervisor(make_scheduler(name), mode=mode)
            for request in reqs:
                hv.submit(request)
            hv.run()
            total_apps += len(hv.retired)
            total_events += hv.engine.processed
    elapsed = time.perf_counter() - start
    return total_apps, total_events, elapsed


def fleet_throughput() -> Tuple[int, float]:
    """``(retired_apps, wall_seconds)`` of the fixed low-rate fleet run.

    Placement, every board's simulation and the report merge are timed
    together, as one ``Cluster.run`` in one process.
    """
    from repro.cluster import Cluster, fleet_profiles
    from repro.experiments.ext_overload import (
        OVERLOAD_WORKLOAD,
        study_sequence,
    )

    sequence = study_sequence(
        OVERLOAD_WORKLOAD, FLEET_SEED, FLEET_ARRIVALS, 1.0
    )
    start = time.perf_counter()
    cluster = Cluster(
        fleet_profiles(FLEET_BOARDS), placement="least_loaded",
        scheduler="nimblock", seed=FLEET_SEED,
    )
    cluster.submit_sequence(sequence)
    report = cluster.run(jobs=1, mode="metrics")
    elapsed = time.perf_counter() - start
    return report.retired, elapsed


def measure(num_sequences: int, num_events: int) -> Dict:
    """One full measurement: every rate plus the scale that produced it."""
    engine_rates = engine_storm()
    queue_stats = queue_scaling()
    sim_apps, sim_events, sim_wall = sim_throughput(
        num_sequences, num_events, mode="full"
    )
    metrics_apps, metrics_events, metrics_wall = sim_throughput(
        num_sequences, num_events, mode="metrics"
    )
    assert (metrics_apps, metrics_events) == (sim_apps, sim_events), (
        f"mode drift: full retired {sim_apps} apps in {sim_events} "
        f"events, metrics retired {metrics_apps} in {metrics_events}"
    )
    fleet_apps, fleet_wall = fleet_throughput()
    return {
        "schema": 4,
        **queue_stats,
        "scale": {
            "schedulers": len(ALL_SCHEDULERS),
            "sequences": num_sequences,
            "events": num_events,
            "engine_storm_events": ENGINE_STORM_EVENTS,
            "fleet_boards": FLEET_BOARDS,
            "fleet_arrivals": FLEET_ARRIVALS,
        },
        "cpu_count": os.cpu_count(),
        **engine_rates,
        "sim_apps_per_sec": round(sim_apps / sim_wall),
        "sim_metrics_apps_per_sec": round(metrics_apps / metrics_wall),
        "sim_events_per_sec": round(sim_events / sim_wall),
        "sim_metrics_events_per_sec": round(metrics_events / metrics_wall),
        "sim_apps": sim_apps,
        "sim_events": sim_events,
        "sim_wall_s": round(sim_wall, 3),
        "sim_metrics_wall_s": round(metrics_wall, 3),
        "fleet_apps_per_sec": round(fleet_apps / fleet_wall),
        "fleet_apps": fleet_apps,
        "fleet_wall_s": round(fleet_wall, 3),
    }


def print_measurement(entry: Dict) -> None:
    scale = entry["scale"]
    print(
        f"core bench: {scale['schedulers']} schedulers x "
        f"{scale['sequences']} sequences x {scale['events']} events"
    )
    print(
        f"engine schedule: {entry['engine_schedule_events_per_sec']:>10,} "
        f"events/sec"
    )
    print(
        f"engine fire:     {entry['engine_fire_events_per_sec']:>10,} "
        f"events/sec"
    )
    for label, apps_key, events_key, wall_key in (
        ("full sim:   ", "sim_apps_per_sec", "sim_events_per_sec",
         "sim_wall_s"),
        ("metrics sim:", "sim_metrics_apps_per_sec",
         "sim_metrics_events_per_sec", "sim_metrics_wall_s"),
    ):
        print(
            f"{label}     {entry[apps_key]:>10,} apps/sec, "
            f"{entry[events_key]:,} events/sec ({entry['sim_apps']:,} "
            f"apps, {entry['sim_events']:,} events in {entry[wall_key]}s)"
        )
    print(
        f"fleet (metrics): {entry['fleet_apps_per_sec']:>10,} apps/sec "
        f"({entry['fleet_apps']:,} apps on {scale['fleet_boards']} boards "
        f"in {entry['fleet_wall_s']}s)"
    )
    print(
        f"queue remove:    {entry['queue_remove_ns_large']:>10,.0f} ns/op "
        f"at {QUEUE_SCALING_SIZES[1]:,} apps "
        f"({entry['queue_remove_scaling']}x vs {QUEUE_SCALING_SIZES[0]:,}; "
        f"O(1) limit {QUEUE_SCALING_MAX_RATIO}x)"
    )


# -- standalone modes -------------------------------------------------------
def _bench(num_sequences: int, num_events: int, out: Path) -> int:
    entry = measure(num_sequences, num_events)
    print_measurement(entry)
    entry = {
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        **entry,
    }
    if out.exists():
        trajectory = json.loads(out.read_text(encoding="utf-8"))
    else:
        trajectory = {"bench": "core", "unit": "events/sec", "history": []}
    trajectory["history"].append(entry)
    out.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    print(f"\nrecorded trajectory entry -> {out}")
    return 0


def _guard(num_sequences: int, num_events: int, baseline_path: Path) -> int:
    if not baseline_path.exists():
        print(f"guard: no baseline at {baseline_path}; run --bench first")
        return 1
    trajectory = json.loads(baseline_path.read_text(encoding="utf-8"))
    history = trajectory.get("history", [])
    if not history:
        print(f"guard: {baseline_path} has an empty history")
        return 1
    baseline_entry = history[-1]
    entry = measure(num_sequences, num_events)
    print_measurement(entry)
    print()
    failed = False

    def hold(key: str, baseline, current) -> None:
        nonlocal failed
        floor = baseline * (1.0 - GUARD_TOLERANCE)
        verdict = "OK" if current >= floor else "REGRESSION"
        failed = failed or current < floor
        print(
            f"guard: {key}: current {current:,} vs baseline {baseline:,} "
            f"(floor {floor:,.0f}, tolerance {GUARD_TOLERANCE:.0%}) "
            f"-> {verdict}"
        )

    for key in GUARD_KEYS:
        baseline = baseline_entry.get(key)
        if baseline is None:
            # Baselines older than this rate have nothing to hold.
            print(f"guard: {key}: no baseline, skipped")
            continue
        hold(key, baseline, entry[key])

    service_baseline = _service_guard_baseline(trajectory)
    if not service_baseline:
        # Pre-schema-3 trajectory (or no proxy-scale entry): nothing to
        # hold on the service tier.
        print("guard: service tier: no schema-3 baseline entry, skipped")
        return 1 if failed else 0
    import bench_service

    service_entry = bench_service.measure(
        SERVICE_GUARD_SUBMISSIONS,
        rate_per_s=SERVICE_GUARD_RATE_PER_S,
        mode=SERVICE_GUARD_MODE,
    )
    print()
    bench_service.print_measurement(service_entry)
    print()
    for key in SERVICE_GUARD_KEYS:
        hold(f"service {key}", service_baseline[key], service_entry[key])
    # Informational (not guarded: the rate key above already moves if
    # replay stops engaging).
    print(
        f"guard: service replay hit rate: current "
        f"{service_entry['replay_hit_rate']:.2%} vs baseline "
        f"{service_baseline.get('replay_hit_rate', 0.0):.2%}"
    )
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Core bench: simulation throughput + regression guard."
    )
    parser.add_argument("--sequences", type=int, default=3)
    parser.add_argument("--events", type=int, default=12)
    parser.add_argument(
        "--fast", action="store_true",
        help="reduced scale (2 sequences x 8 events) for CI",
    )
    parser.add_argument(
        "--bench", action="store_true",
        help="measure and append a trajectory entry to BENCH_core.json",
    )
    parser.add_argument(
        "--guard", action="store_true",
        help="fail (exit 1) if any guarded rate (full and metrics sim "
             "apps/sec, fleet apps/sec, engine fire events/sec) drops "
             ">30%% below the last BENCH_core.json entry",
    )
    parser.add_argument(
        "--bench-out", default=str(DEFAULT_BENCH_PATH),
        help="trajectory file (default: repo-root BENCH_core.json)",
    )
    args = parser.parse_args(argv)

    if args.fast:
        num_sequences, num_events = 2, 8
    else:
        num_sequences, num_events = args.sequences, args.events

    if args.bench:
        return _bench(num_sequences, num_events, Path(args.bench_out))
    if args.guard:
        return _guard(num_sequences, num_events, Path(args.bench_out))
    entry = measure(num_sequences, num_events)
    print_measurement(entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
