"""Nimblock reproduction: fine-grained FPGA sharing through virtualization.

A faithful, simulation-backed reproduction of *"Nimblock: Scheduling for
Fine-grained FPGA Sharing through Virtualization"* (ISCA 2023). The library
models a slot-based FPGA overlay (ZCU106, ten slots, serialized 80 ms
partial reconfiguration), a hypervisor runtime, the Nimblock scheduling
algorithm with token-based candidate selection, goal-number slot
allocation, automatic inter-batch pipelining and batch-preemption, plus
the paper's four comparison schedulers, benchmark suite, workload
scenarios and every evaluation experiment.

Quickstart
----------
>>> from repro import Hypervisor, make_scheduler, scenario_sequence, STRESS
>>> hv = Hypervisor(make_scheduler("nimblock"))
>>> for request in scenario_sequence(STRESS, seed=1, num_events=5).to_requests():
...     _ = hv.submit(request)
>>> hv.run()
>>> results = hv.results()
"""

from repro.version import __version__
from repro.config import PRIORITY_LEVELS, SystemConfig, ZCU106_CONFIG
from repro.errors import ExperimentError, ReproError
from repro.faults import FaultConfig, FaultInjector, FaultStats, RecoveryPolicy
from repro.apps import BENCHMARK_NAMES, BenchmarkApp, get_benchmark
from repro.taskgraph import TaskGraph, TaskSpec
from repro.hypervisor import (
    AppRequest,
    AppResult,
    FaaSGateway,
    Hypervisor,
    single_slot_latency_ms,
)
from repro.sim import render_timeline
from repro.schedulers import ALL_SCHEDULERS, SchedulerPolicy, make_scheduler
from repro.core import NimblockScheduler
from repro.workload import (
    CHAOS_SCENARIOS,
    ChaosScenario,
    EventGenerator,
    EventSequence,
    EventSpec,
    REALTIME,
    SCENARIOS,
    STANDARD,
    STRESS,
    chaos_scenario,
    fixed_batch_sequence,
    make_arrivals,
    scenario_sequence,
    service_rate_process,
)
# Experiment-harness and observability entry points resolve lazily (PEP
# 562): simulating through the core never pays for — or even imports —
# the observe/experiments layers unless they are actually used. The
# zero-overhead structural test in tests/test_observe.py pins this down.
_LAZY_EXPORTS = {
    "ExperimentSettings": "repro.experiments.runner",
    "RunCache": "repro.experiments.runner",
    "Experiment": "repro.experiments.registry",
    "ExperimentResult": "repro.experiments.registry",
    "experiment_names": "repro.experiments.registry",
    "get_experiment": "repro.experiments.registry",
    "run_experiment": "repro.experiments.registry",
    "SimulationRun": "repro.facade",
    "simulate": "repro.facade",
    "serve": "repro.facade",
    "fleet": "repro.facade",
    "tune": "repro.facade",
    "format_tune": "repro.facade",
    "AutotuneConfig": "repro.autotune",
    "Autotuner": "repro.autotune",
    "ConfigPatch": "repro.autotune",
    "DetectorConfig": "repro.autotune",
    "Symptom": "repro.autotune",
    "TunableConfig": "repro.autotune",
    "detect": "repro.autotune",
    "propose": "repro.autotune",
    "replay_episode": "repro.autotune",
    "verify_candidates": "repro.autotune",
    "BoardProfile": "repro.cluster",
    "Cluster": "repro.cluster",
    "ClusterReport": "repro.cluster",
    "PLACEMENT_POLICIES": "repro.cluster",
    "PlacementDecision": "repro.cluster",
    "board_profile": "repro.cluster",
    "fleet_profiles": "repro.cluster",
    "make_placement": "repro.cluster",
    "QuantileSketch": "repro.service",
    "ServiceLoop": "repro.service",
    "ServiceReport": "repro.service",
    "WindowedMetrics": "repro.service",
    "SloTarget": "repro.metrics.slo",
    "Instrumentation": "repro.observe",
    "Span": "repro.observe",
    "build_spans": "repro.observe",
    "collect_metrics": "repro.observe",
    "observed_run": "repro.observe",
    "snapshot_run": "repro.observe",
    "ADMISSION_POLICIES": "repro.admission",
    "AdmissionController": "repro.admission",
    "AdmissionStats": "repro.admission",
    "Watchdog": "repro.admission",
    "WatchdogConfig": "repro.admission",
    "make_admission_policy": "repro.admission",
    "InvariantChecker": "repro.invariants",
    "checked_run": "repro.invariants",
}


def __getattr__(name: str):
    module_path = _LAZY_EXPORTS.get(name)
    if module_path is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_path), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "PRIORITY_LEVELS",
    "SystemConfig",
    "ZCU106_CONFIG",
    "ReproError",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "RecoveryPolicy",
    "BENCHMARK_NAMES",
    "BenchmarkApp",
    "get_benchmark",
    "TaskGraph",
    "TaskSpec",
    "AppRequest",
    "AppResult",
    "FaaSGateway",
    "Hypervisor",
    "single_slot_latency_ms",
    "render_timeline",
    "ALL_SCHEDULERS",
    "SchedulerPolicy",
    "make_scheduler",
    "NimblockScheduler",
    "CHAOS_SCENARIOS",
    "ChaosScenario",
    "EventGenerator",
    "EventSequence",
    "EventSpec",
    "REALTIME",
    "SCENARIOS",
    "STANDARD",
    "STRESS",
    "chaos_scenario",
    "fixed_batch_sequence",
    "make_arrivals",
    "scenario_sequence",
    "service_rate_process",
    "ExperimentError",
    "ExperimentSettings",
    "RunCache",
    "Experiment",
    "ExperimentResult",
    "experiment_names",
    "get_experiment",
    "run_experiment",
    "SimulationRun",
    "simulate",
    "serve",
    "fleet",
    "tune",
    "format_tune",
    "AutotuneConfig",
    "Autotuner",
    "ConfigPatch",
    "DetectorConfig",
    "Symptom",
    "TunableConfig",
    "detect",
    "propose",
    "replay_episode",
    "verify_candidates",
    "BoardProfile",
    "Cluster",
    "ClusterReport",
    "PLACEMENT_POLICIES",
    "PlacementDecision",
    "board_profile",
    "fleet_profiles",
    "make_placement",
    "QuantileSketch",
    "ServiceLoop",
    "ServiceReport",
    "WindowedMetrics",
    "SloTarget",
    "Instrumentation",
    "Span",
    "build_spans",
    "collect_metrics",
    "observed_run",
    "snapshot_run",
    "ADMISSION_POLICIES",
    "AdmissionController",
    "AdmissionStats",
    "Watchdog",
    "WatchdogConfig",
    "make_admission_policy",
    "InvariantChecker",
    "checked_run",
    "__version__",
]
