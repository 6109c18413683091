"""Golden regression pins: exact response times for a fixed workload.

These values encode the precise execution semantics of every scheduler on
one deterministic five-event workload (default ZCU106 platform). Any
change to scheduling logic, timing accounting, dispatch overhead or
readiness rules will shift them — if you changed semantics deliberately,
regenerate the numbers and say so in the commit; if you didn't, you just
caught a regression.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.config import SystemConfig
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    config_fingerprint,
)
from repro.hypervisor.hypervisor import Hypervisor
from repro.schedulers.registry import make_scheduler
from repro.workload.generator import EventGenerator

#: Responses (ms) per event, per scheduler, for the golden workload.
GOLDEN_RESPONSES = {
    "baseline": [22992.0, 23338.0, 41548.0, 42306.0, 42748.0],
    "fcfs": [23726.0, 1000.0, 19090.0, 1256.0, 1130.0],
    "prema": [41640.0, 19944.0, 19090.0, 1122.0, 19824.0],
    "rr": [28588.0, 5916.0, 20332.0, 3126.0, 1052.0],
    "nimblock": [12550.0, 8082.0, 6344.0, 654.0, 6526.0],
    "nimblock_no_pipe": [41640.0, 19944.0, 19090.0, 1122.0, 19824.0],
    "edf": [23726.0, 1000.0, 19090.0, 1256.0, 1130.0],
    "dml_static": [6832.0, 756.0, 6836.0, 1752.0, 2650.0],
}


def golden_sequence():
    """Five mixed events: of/5, imgc/3, of/4(hi), lenet/6(hi), imgc/5."""
    return EventGenerator(
        99, benchmarks=("lenet", "imgc", "3dr", "of")
    ).sequence(
        num_events=5, delay_range_ms=(200.0, 200.0), batch_range=(2, 6),
        label="golden",
    )


@pytest.mark.parametrize("scheduler_name", sorted(GOLDEN_RESPONSES))
def test_golden_responses(scheduler_name):
    hypervisor = Hypervisor(make_scheduler(scheduler_name))
    for request in golden_sequence().to_requests():
        hypervisor.submit(request)
    hypervisor.run()
    measured = [round(r.response_ms, 2) for r in hypervisor.results()]
    assert measured == GOLDEN_RESPONSES[scheduler_name]


def test_golden_relationships():
    """Cross-scheduler facts the golden workload exhibits."""
    runs = {}
    for name in GOLDEN_RESPONSES:
        runs[name] = GOLDEN_RESPONSES[name]
    mean = lambda xs: sum(xs) / len(xs)
    # Nimblock has the lowest mean response on this workload.
    assert min(runs, key=lambda n: mean(runs[n])) in (
        "nimblock", "dml_static"
    )
    # Without pipelining Nimblock degenerates to PREMA-like behaviour on
    # this workload (same bulk readiness, token candidates).
    assert runs["nimblock_no_pipe"] == runs["prema"]
    # The high-priority LeNet event (index 3) is served fastest by
    # Nimblock.
    assert runs["nimblock"][3] == min(r[3] for r in runs.values())


# -- extension sweeps --------------------------------------------------------
# Pinned aggregates for the two extension studies at fixed small scale.
# Regeneration (only after a deliberate semantics change):
#   PYTHONPATH=src python -c "from repro.experiments import ext_schedulers;
#   from repro.experiments.runner import *; r = ext_schedulers.run(
#   cache=RunCache(), settings=ExperimentSettings(1, 6));
#   print({k: round(v, 4) for k, v in sorted(r.reductions.items())})"

#: Mean response-time reduction vs no-sharing baseline, 1 sequence x
#: 6 events, per (scenario, scheduler).
GOLDEN_EXT_REDUCTIONS = {
    ("realtime", "dml_static"): 9.091,
    ("realtime", "edf"): 5.447,
    ("realtime", "nimblock"): 11.0567,
    ("realtime", "prema"): 5.4148,
    ("standard", "dml_static"): 9.175,
    ("standard", "edf"): 5.4479,
    ("standard", "nimblock"): 11.032,
    ("standard", "prema"): 5.3883,
    ("stress", "dml_static"): 9.1008,
    ("stress", "edf"): 5.447,
    ("stress", "nimblock"): 11.0652,
    ("stress", "prema"): 5.4157,
}

#: Response degradation under the mixed chaos scenario, 1 sequence x
#: 5 events, per (scheduler, fault rate) — with the injected fault counts
#: that produced them (pins the seeded fault stream itself).
GOLDEN_FAULT_DEGRADATION = {
    ("nimblock", 0.0): 1.0,
    ("nimblock", 0.1): 1.1282,
    ("rr", 0.0): 1.0,
    ("rr", 0.1): 0.9724,
}
GOLDEN_FAULT_COUNTS = {
    ("nimblock", 0.0): 0,
    ("nimblock", 0.1): 50,
    ("rr", 0.0): 0,
    ("rr", 0.1): 96,
}


def test_golden_ext_schedulers_sweep():
    from repro.experiments import ext_schedulers

    result = ext_schedulers.run(
        cache=RunCache(),
        settings=ExperimentSettings(num_sequences=1, num_events=6),
    )
    measured = {
        key: round(value, 4) for key, value in result.reductions.items()
    }
    assert measured == GOLDEN_EXT_REDUCTIONS


def test_golden_ext_faults_sweep():
    from repro.experiments import ext_faults

    result = ext_faults.run(
        cache=RunCache(jobs=1),
        settings=ExperimentSettings(num_sequences=1, num_events=5),
        fault_rates=(0.0, 0.1),
        schedulers=("rr", "nimblock"),
    )
    measured = {
        key: round(value, 4) for key, value in result.degradation.items()
    }
    assert measured == GOLDEN_FAULT_DEGRADATION
    assert dict(result.fault_counts) == GOLDEN_FAULT_COUNTS


# -- cache keying ------------------------------------------------------------
def test_config_fingerprint_sensitive_to_every_field():
    """Mutating any SystemConfig field must change the cache fingerprint.

    This is what makes a stale disk-cache hit impossible: a run recorded
    under one platform description can never satisfy a lookup for another.
    """
    baseline = SystemConfig()
    base_print = config_fingerprint(baseline)
    # One valid (post-init-passing) mutation per field. A new field must
    # be added here — that is deliberate: it also needs a CACHE_SALT bump
    # review.
    mutations = {
        "num_slots": baseline.num_slots + 1,
        "reconfig_ms": baseline.reconfig_ms + 1.0,
        "dispatch_overhead_ms": baseline.dispatch_overhead_ms + 1.0,
        "scheduling_interval_ms": baseline.scheduling_interval_ms + 1.0,
        "hls_estimation_error": 0.5,
        "priority_levels": (*baseline.priority_levels, 27),
        "token_alpha": baseline.token_alpha * 2,
        "saturation_threshold": baseline.saturation_threshold / 2,
    }
    assert set(mutations) == {f.name for f in fields(SystemConfig)}, (
        "new SystemConfig field: add a mutation here and consider whether "
        "CACHE_SALT needs a bump"
    )
    for name, mutated in mutations.items():
        changed = replace(baseline, **{name: mutated})
        assert config_fingerprint(changed) != base_print, (
            f"fingerprint ignored SystemConfig.{name}"
        )
