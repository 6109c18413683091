"""Command-line entry point regenerating every table and figure.

Examples
--------
::

    nimblock-repro table2
    nimblock-repro fig5 --sequences 3 --events 12
    nimblock-repro all --sequences 2 --events 10
    nimblock-repro report --jobs 4 --cache-dir .runcache
    nimblock-repro chaos --scenario transient --fault-rate 0.05 --seed 1
    nimblock-repro overload --rate-multiplier 4 --workload stress
    nimblock-repro serve --rate 2 --submissions 50000 --admission shed
    nimblock-repro cluster --boards 8 --placement power_aware --jobs 4
    nimblock-repro trace --format chrome --output run.json
    nimblock-repro stats --fault-rate 0.02 --jobs 4
    nimblock-repro tune --rate 1 --burst 4 --jobs 2

Exit codes: 0 on success, 1 when an experiment fails
(:class:`~repro.errors.ReproError`), 2 on usage errors — argparse
rejections, admission misconfiguration
(:class:`~repro.errors.AdmissionError`) and runtime invariant breaches
(:class:`~repro.errors.InvariantViolation`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import AdmissionError, InvariantViolation, ReproError
from repro.experiments.registry import experiment_names, get_experiment
from repro.experiments.runner import ExperimentSettings, RunCache
from repro.version import __version__
from repro.workload.scenarios import CHAOS_SCENARIOS, SCENARIOS

#: Exit codes of :func:`main` (argparse itself exits 2 on bad usage).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2

#: Non-experiment actions accepted in the positional slot.
ACTIONS = (
    "all", "chaos", "cluster", "overload", "serve", "stats", "trace",
    "tune",
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="nimblock-repro",
        description=(
            "Regenerate the tables and figures of 'Nimblock: Scheduling "
            "for Fine-grained FPGA Sharing through Virtualization' "
            "(ISCA 2023) on the simulated ZCU106 overlay."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(experiment_names()) + list(ACTIONS),
        help=(
            "which table/figure to regenerate ('all' runs everything; "
            "'chaos' runs a one-shot fault-injection drill; 'cluster' "
            "runs a one-shot multi-board fleet drill; 'overload' "
            "runs a one-shot admission-policy drill; 'serve' runs an "
            "open-loop online-service drill; 'trace' "
            "exports one observed run as Chrome/Perfetto or JSONL; "
            "'stats' emits Prometheus-format metrics for a sweep; "
            "'tune' runs the closed-loop remediation drill)"
        ),
    )
    parser.add_argument(
        "--sequences", type=int, default=None,
        help="number of random event sequences (paper: 10)",
    )
    parser.add_argument(
        "--events", type=int, default=None,
        help="events per sequence (paper: 20)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help=(
            "worker processes for the parallel sweep executor "
            "(default: REPRO_JOBS or 1; results are identical at any "
            "worker count)"
        ),
    )
    parser.add_argument(
        "--mode", choices=("full", "metrics"), default="full",
        help=(
            "run mode: 'full' records trace rows for debugging/export; "
            "'metrics' folds events straight into counters and sketches "
            "— same numbers, fastest path (default: full); serve and "
            "tune store no rows and ignore it"
        ),
    )
    parser.add_argument(
        "--no-replay", action="store_true",
        help=(
            "disable the steady-state macro-event replay cache in the "
            "'serve' and 'cluster' drills (output is byte-identical "
            "either way; the flag exists for A/B verification and the "
            "replay-on/off pairs of the 'determinism' CI job)"
        ),
    )
    parser.add_argument(
        "--admission", default=None,
        help=(
            "admission policy: unbounded, reject, shed or degrade "
            "(default: shed for 'serve', none for 'cluster')"
        ),
    )
    parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR") or None,
        help=(
            "persistent on-disk run cache; repeated invocations reuse "
            "completed simulations (default: REPRO_CACHE_DIR, else "
            "memory-only)"
        ),
    )
    workload = parser.add_argument_group(
        "workload",
        "options for the 'chaos', 'overload', 'trace' and 'stats' actions",
    )
    workload.add_argument(
        "--scenario", default="mixed",
        choices=sorted(s.name for s in CHAOS_SCENARIOS),
        help="which fault scenario to inject (default: mixed)",
    )
    workload.add_argument(
        "--fault-rate", type=float, default=None,
        help=(
            "fault-rate knob; 0 disables injection entirely "
            "(default: 0.05 for 'chaos', 0 for 'trace'/'stats')"
        ),
    )
    workload.add_argument(
        "--seed", type=int, default=1,
        help="workload and fault-stream seed (default: 1)",
    )
    workload.add_argument(
        "--workload", default=None,
        choices=sorted([s.name for s in SCENARIOS] + ["overload"]),
        help=(
            "congestion scenario driving arrivals ('overload' is the "
            "admission study's dedicated regime; default: stress, or "
            "overload for the 'overload' action)"
        ),
    )
    workload.add_argument(
        "--scheduler", default=None,
        help=(
            "scheduler observed by 'trace', 'stats' and 'overload' "
            "(default: nimblock, or fcfs for 'overload' — nimblock "
            "self-protects high-priority work even unbounded)"
        ),
    )
    workload.add_argument(
        "--rate-multiplier", type=float, default=4.0,
        help=(
            "'overload' arrival-rate multiplier versus the workload's "
            "nominal inter-arrival delays (default: 4.0)"
        ),
    )
    serve = parser.add_argument_group(
        "serve", "options for the 'serve' open-loop service drill"
    )
    serve.add_argument(
        "--rate", type=float, default=None,
        help="mean open-loop arrival rate, events/s (default: 2.0)",
    )
    serve.add_argument(
        "--burstiness", type=float, default=0.0,
        help=(
            "0 = Poisson arrivals; > 0 = MMPP bursts at the same "
            "long-run mean rate (default: 0)"
        ),
    )
    serve.add_argument(
        "--submissions", type=int, default=None,
        help="open-loop arrivals to drive (default: 20000; --fast: 1500)",
    )
    serve.add_argument(
        "--window-s", type=float, default=None,
        help="tumbling metric window, seconds (default: 60; --fast: 20)",
    )
    serve.add_argument(
        "--schedulers", default=None,
        help=(
            "comma-separated schedulers to serve, one service run each "
            "(default: nimblock; --fast: nimblock,prema)"
        ),
    )
    serve.add_argument(
        "--fast", action="store_true",
        help=(
            "reduced-scale serve drill for CI smoke "
            "(overridden by any explicit serve flag)"
        ),
    )
    tune = parser.add_argument_group(
        "tune",
        "options for the 'tune' closed-loop remediation drill "
        "(also honours --rate, --submissions, --window-s, --scheduler, "
        "--admission, --seed, --jobs, --fast and --json)",
    )
    tune.add_argument(
        "--burst", type=float, default=4.0,
        help=(
            "'tune' episode burst multiplier over the base --rate "
            "(default: 4.0)"
        ),
    )
    cluster = parser.add_argument_group(
        "cluster", "options for the 'cluster' fleet drill"
    )
    cluster.add_argument(
        "--boards", type=int, default=4,
        help="fleet size for the 'cluster' drill (default: 4)",
    )
    cluster.add_argument(
        "--placement", default="least_loaded",
        help=(
            "placement policy: round_robin, least_loaded, affinity or "
            "power_aware (default: least_loaded)"
        ),
    )
    cluster.add_argument(
        "--mix", default=None,
        help=(
            "comma-separated board-profile rotation, e.g. "
            "'zcu106,edge,hpc' (default: the heterogeneous mix; "
            "'zcu106' gives a homogeneous fleet)"
        ),
    )
    cluster.add_argument(
        "--json", action="store_true",
        help=(
            "emit the merged cluster snapshot as canonical JSON instead "
            "of the summary table (byte-identical at any --jobs)"
        ),
    )
    observe = parser.add_argument_group(
        "observe", "options for the 'trace' action"
    )
    observe.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help=(
            "'trace' output format: Chrome/Perfetto trace_event JSON "
            "or one raw event per line (default: chrome)"
        ),
    )
    observe.add_argument(
        "--output", default=None,
        help="write 'trace' output to this file instead of stdout",
    )
    return parser


def _workload_scenario(name: Optional[str]):
    """The congestion scenario driving arrivals, by CLI name."""
    if name == "overload":
        from repro.experiments.ext_overload import OVERLOAD_WORKLOAD

        return OVERLOAD_WORKLOAD
    return next(s for s in SCENARIOS if s.name == (name or "stress"))


def _fault_config(args: argparse.Namespace, default_rate: float):
    """Resolve --scenario/--fault-rate/--seed into a FaultConfig or None."""
    from repro.workload.scenarios import chaos_scenario

    rate = args.fault_rate if args.fault_rate is not None else default_rate
    if rate <= 0.0:
        return None
    return chaos_scenario(args.scenario).fault_config(rate, seed=args.seed)


def _run_chaos(args: argparse.Namespace, settings: ExperimentSettings) -> int:
    """The one-shot fault-injection drill (``chaos``)."""
    from repro.experiments import ext_faults

    rate = args.fault_rate if args.fault_rate is not None else 0.05
    print(ext_faults.chaos_report(
        scenario_name=args.scenario,
        fault_rate=rate,
        seed=args.seed,
        num_events=args.events or settings.num_events,
        workload_name=args.workload or "stress",
    ))
    return EXIT_OK


def _run_overload(
    args: argparse.Namespace, settings: ExperimentSettings
) -> int:
    """The one-shot admission-policy drill (``overload``)."""
    from repro.experiments import ext_overload

    print(ext_overload.overload_report(
        rate_multiplier=args.rate_multiplier,
        seed=args.seed,
        num_events=args.events,
        workload_name=args.workload or "overload",
        scheduler=args.scheduler or "fcfs",
    ))
    return EXIT_OK


def _run_serve(args: argparse.Namespace, settings: ExperimentSettings) -> int:
    """The one-shot open-loop service drill (``serve``).

    Everything on stdout is deterministic (the ``determinism`` CI job's
    ``serve`` entry diffs ``--jobs 1`` against ``--jobs 2``); wall-clock
    throughput goes to stderr.
    """
    import time

    from repro.experiments import ext_service

    fast = args.fast
    rate = args.rate if args.rate is not None else (4.0 if fast else 2.0)
    submissions = args.submissions if args.submissions is not None else (
        1500 if fast else 20_000
    )
    window_s = args.window_s if args.window_s is not None else (
        20.0 if fast else 60.0
    )
    schedulers = (
        args.schedulers or ("nimblock,prema" if fast else "nimblock")
    ).split(",")
    started = time.perf_counter()
    print(ext_service.serve_report(
        rate=rate,
        burstiness=args.burstiness,
        submissions=submissions,
        window_ms=window_s * 1000.0,
        schedulers=[name.strip() for name in schedulers if name.strip()],
        admission=args.admission or "shed",
        seed=args.seed,
        jobs=args.jobs,
        replay=not args.no_replay,
    ))
    wall_s = time.perf_counter() - started
    print(
        f"serve: {len(schedulers)} run(s) x {submissions} submissions "
        f"in {wall_s:.1f}s wall",
        file=sys.stderr,
    )
    return EXIT_OK


def _run_cluster(
    args: argparse.Namespace, settings: ExperimentSettings
) -> int:
    """The one-shot multi-board fleet drill (``cluster``).

    Everything on stdout is deterministic and independent of ``--jobs``
    (the ``determinism`` CI job's ``fleet`` entry diffs ``--jobs 1``
    against ``--jobs 4``); wall-clock notes go to stderr.
    """
    from repro.facade import cluster_report as run_fleet

    mix = None
    if args.mix:
        mix = tuple(
            name.strip() for name in args.mix.split(",") if name.strip()
        )
    print(run_fleet(
        num_boards=args.boards,
        placement=args.placement,
        scheduler=args.scheduler or "nimblock",
        admission=args.admission,
        mix=mix,
        seed=args.seed,
        num_events=args.events or settings.num_events * args.boards,
        rate_multiplier=args.rate_multiplier * args.boards,
        fault_rate=args.fault_rate or 0.0,
        fault_scenario=args.scenario,
        jobs=args.jobs,
        as_json=args.json,
        mode=args.mode,
        replay=not args.no_replay,
    ), end="")
    return EXIT_OK


def _run_tune(args: argparse.Namespace, settings: ExperimentSettings) -> int:
    """The closed-loop remediation drill (``tune``).

    Everything on stdout is deterministic and independent of ``--jobs``
    (the ``determinism`` CI job's ``tune`` entry diffs ``--jobs 1``
    against ``--jobs 2``); wall-clock notes go to stderr.
    """
    import time

    from repro.facade import tune_report

    fast = args.fast
    rate = args.rate if args.rate is not None else (2.0 if fast else 1.0)
    submissions = args.submissions if args.submissions is not None else (
        240 if fast else 600
    )
    window_s = args.window_s if args.window_s is not None else 10.0
    started = time.perf_counter()
    print(tune_report(
        args.scheduler or "nimblock",
        admission=args.admission or "unbounded",
        rate=rate,
        burst_multiplier=args.burst,
        seed=args.seed,
        submissions=submissions,
        window_ms=window_s * 1000.0,
        jobs=args.jobs,
        as_json=args.json,
    ), end="")
    print(
        f"tune: 2 runs x {submissions} submissions in "
        f"{time.perf_counter() - started:.1f}s wall",
        file=sys.stderr,
    )
    return EXIT_OK


def _run_trace(args: argparse.Namespace, settings: ExperimentSettings) -> int:
    """Export one observed run (``trace``) as Chrome JSON or JSONL."""
    import json

    from repro.observe.aggregate import observed_run
    from repro.observe.exporters import (
        trace_to_chrome,
        trace_to_jsonl,
        validate_chrome_trace,
    )
    from repro.observe.spans import expected_span_count
    from repro.workload.scenarios import scenario_sequence

    scheduler = args.scheduler or "nimblock"
    sequence = scenario_sequence(
        _workload_scenario(args.workload), args.seed, settings.num_events
    )
    hypervisor, _ = observed_run(
        scheduler, sequence, _fault_config(args, default_rate=0.0)
    )
    if args.format == "chrome":
        payload = trace_to_chrome(
            hypervisor.trace,
            label=scheduler,
            num_slots=hypervisor.config.num_slots,
        )
        spans = validate_chrome_trace(payload)
        assert spans == expected_span_count(hypervisor.trace)
        text = json.dumps(payload, sort_keys=True) + "\n"
        note = f"chrome trace: {spans} spans"
    else:
        text = trace_to_jsonl(hypervisor.trace)
        note = f"jsonl trace: {len(hypervisor.trace)} events"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{note} -> {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
        print(note, file=sys.stderr)
    return EXIT_OK


def _run_stats(args: argparse.Namespace, settings: ExperimentSettings) -> int:
    """Emit merged Prometheus metrics for a small sweep (``stats``)."""
    from repro.observe.aggregate import collect_metrics
    from repro.observe.exporters import snapshot_to_prometheus
    from repro.workload.scenarios import scenario_sequence

    scenario = _workload_scenario(args.workload)
    sequences = [
        scenario_sequence(scenario, seed, settings.num_events)
        for seed in settings.seeds()
    ]
    merged = collect_metrics(
        [args.scheduler or "nimblock"], sequences,
        fault_config=_fault_config(args, default_rate=0.0),
        jobs=args.jobs,
        admission=args.admission,
        seed=args.seed,
    )
    sys.stdout.write(snapshot_to_prometheus(merged))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    settings = ExperimentSettings.from_env()
    if args.sequences is not None or args.events is not None:
        settings = ExperimentSettings(
            num_sequences=args.sequences or settings.num_sequences,
            num_events=args.events or settings.num_events,
        )
    try:
        if args.experiment == "chaos":
            return _run_chaos(args, settings)
        if args.experiment == "cluster":
            return _run_cluster(args, settings)
        if args.experiment == "overload":
            return _run_overload(args, settings)
        if args.experiment == "serve":
            return _run_serve(args, settings)
        if args.experiment == "trace":
            return _run_trace(args, settings)
        if args.experiment == "stats":
            return _run_stats(args, settings)
        if args.experiment == "tune":
            return _run_tune(args, settings)
        cache = RunCache(cache_dir=args.cache_dir, jobs=args.jobs)
        names = (
            sorted(experiment_names())
            if args.experiment == "all"
            else [args.experiment]
        )
        for name in names:
            result = get_experiment(name).run(
                settings, cache=cache, jobs=args.jobs, mode=args.mode
            )
            print(result.text)
            print()
    except (AdmissionError, InvariantViolation) as error:
        # Robustness failures (admission misconfiguration, invariant
        # breaches) are usage-grade: something about the requested run
        # itself is wrong, not the experiment pipeline.
        print(f"{args.experiment}: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as error:
        print(f"{args.experiment}: {error}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # Downstream closed early (e.g. `nimblock-repro fig5 | head`);
        # detach stdout so interpreter shutdown doesn't re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    if args.cache_dir:
        print(
            f"run cache: {cache.simulations} simulations, "
            f"{cache.disk_hits} disk hits, {cache.memory_hits} memory hits "
            f"({args.cache_dir})",
            file=sys.stderr,
        )
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
