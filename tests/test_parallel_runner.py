"""Determinism and cache-integrity tests for the parallel sweep executor.

The contract under test: serial execution, parallel ``prewarm`` at any
worker count, and a disk-cache round trip (including one through a fresh
interpreter) all yield identical ``AppResult`` lists — which is what makes
parallel fan-out and persistent caching safe substitutes for the paper's
serial re-simulation.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.experiments import parallel
from repro.experiments.runner import (
    BASE_SEED,
    ExperimentSettings,
    RunCache,
    config_fingerprint,
    sequence_fingerprint,
)
from repro.schedulers.registry import scheduler_factories
from repro.workload.events import EventSequence, EventSpec
from repro.workload.scenarios import STRESS, scenario_sequence

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: Every registered policy name, aliases included.
REGISTRY = sorted(scheduler_factories())

#: Small but non-trivial stimuli shared by the determinism tests.
SETTINGS = ExperimentSettings(num_sequences=2, num_events=6)

#: One short stimulus per scenario, for the grid contract tests.
TINY = ExperimentSettings(1, 6)


def _sequences():
    return [
        scenario_sequence(STRESS, seed, SETTINGS.num_events)
        for seed in SETTINGS.seeds()
    ]


class TestParallelDeterminism:
    def test_prewarm_matches_serial_for_every_registered_scheduler(self):
        """prewarm(jobs=4) and the serial path agree for the whole registry."""
        sequences = _sequences()
        serial = RunCache()
        fanned = RunCache()
        performed = fanned.prewarm(REGISTRY, sequences, jobs=4)
        assert performed == len(REGISTRY) * len(sequences)
        for name in REGISTRY:
            for sequence in sequences:
                assert fanned.results(name, sequence) == serial.results(
                    name, sequence
                ), f"parallel run diverged for {name} on {sequence.label}"
        # Everything the comparison consumed came from memory, not re-runs.
        assert fanned.simulations == performed

    def test_prewarm_worker_count_does_not_change_results(self):
        sequences = _sequences()
        by_jobs = {}
        for jobs in (1, 2, 5):
            cache = RunCache()
            cache.prewarm(("nimblock", "rr"), sequences, jobs=jobs)
            by_jobs[jobs] = [
                cache.results(name, seq)
                for name in ("nimblock", "rr")
                for seq in sequences
            ]
        assert by_jobs[1] == by_jobs[2] == by_jobs[5]

    def test_prewarm_skips_known_runs(self):
        sequences = _sequences()
        cache = RunCache()
        assert cache.prewarm(("fcfs",), sequences, jobs=2) == len(sequences)
        assert cache.prewarm(("fcfs",), sequences, jobs=2) == 0
        assert cache.simulations == len(sequences)

    def test_chaos_cells_parallel_matches_serial(self):
        """Seeded fault streams reconstruct identically in workers."""
        from repro.workload.scenarios import MIXED_FAULTS

        sequence = scenario_sequence(STRESS, BASE_SEED, 6)
        cells = [
            parallel.ClosedCell(
                name, sequence, reduce=parallel.chaos,
                faults=MIXED_FAULTS.fault_config(0.1, seed=7),
            )
            for name in ("rr", "nimblock")
        ]
        serial = parallel.run_cells(cells, jobs=1)
        fanned = parallel.run_cells(cells, jobs=2)
        assert serial == fanned
        assert any(
            report.slot_faults + report.config_failures > 0
            for _, report in serial
        )

    @hyp_settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 10**6), num_events=st.integers(3, 8))
    def test_property_serial_equals_parallel(self, seed, num_events):
        sequence = scenario_sequence(STRESS, seed, num_events)
        cells = [
            parallel.ClosedCell("fcfs", sequence),
            parallel.ClosedCell("nimblock", sequence, mode="metrics"),
        ]
        assert parallel.run_cells(cells, jobs=2) == parallel.run_cells(
            cells, jobs=1
        )

    def test_fanout_propagates_worker_errors(self):
        events = [EventSpec("lenet", 1, 3, 0.0)]
        bad = EventSequence(events, label="bad-scheduler-seq")
        with pytest.raises(Exception):
            parallel.run_cells(
                [parallel.ClosedCell("no_such_policy", bad)], jobs=2
            )

    def test_one_pool_runs_every_cell_kind(self):
        """One fan-out mixes every reducer and a service cell; outcomes
        are jobs-independent and no reducer passes vacuously."""
        from repro.experiments.ext_overload import (
            OVERLOAD_WORKLOAD,
            study_sequence,
        )
        from repro.workload.scenarios import MIXED_FAULTS

        sequence = scenario_sequence(STRESS, BASE_SEED, 6)
        hot = study_sequence(OVERLOAD_WORKLOAD, 1, 30, 4.0)
        cells = [
            parallel.ClosedCell("nimblock", sequence),
            parallel.ClosedCell(
                "rr", sequence, reduce=parallel.chaos,
                faults=MIXED_FAULTS.fault_config(0.1, seed=7),
            ),
            parallel.ClosedCell(
                "fcfs", hot, reduce=parallel.overload, admission="shed",
                seed=3,
            ),
            parallel.ClosedCell("prema", sequence, reduce=parallel.snapshot),
            parallel.ServiceCell(
                "nimblock", "shed", 1, 30, 15_000.0, rate=2.0
            ),
        ]
        serial = parallel.run_cells(cells, jobs=1)
        assert parallel.run_cells(cells, jobs=2) == serial
        results, (_, chaos), (_, overload), snapshot, service = serial
        assert len(results) == len(sequence)
        assert chaos.slot_faults + chaos.config_failures > 0
        assert overload.shed + overload.drops > 0
        assert snapshot["counters"]
        assert service["arrived"] == 30

    def test_closed_cell_pairs_watchdog_with_admission(self):
        sequence = scenario_sequence(STRESS, BASE_SEED, 4)
        armed = parallel.ClosedCell("fcfs", sequence, admission="shed")
        assert armed.hypervisor().watchdog is not None
        plain = parallel.ClosedCell("fcfs", sequence).hypervisor()
        assert plain.watchdog is None
        assert plain.observer is None

    def test_effective_jobs_validation(self):
        assert parallel.effective_jobs(3) == 3
        assert parallel.effective_jobs(None) >= 1
        with pytest.raises(ExperimentError):
            parallel.effective_jobs(0)


class TestDiskCache:
    def test_round_trip_is_lossless(self, tmp_path):
        sequence = _sequences()[0]
        writer = RunCache(cache_dir=tmp_path)
        expected = writer.results("nimblock", sequence)
        reader = RunCache(cache_dir=tmp_path)
        assert reader.results("nimblock", sequence) == expected
        assert reader.simulations == 0
        assert reader.disk_hits == 1

    def test_round_trip_in_fresh_process(self, tmp_path):
        """Write here, reload in a fresh interpreter: byte-identical."""
        sequence = _sequences()[0]
        writer = RunCache(cache_dir=tmp_path)
        expected = [asdict(r) for r in writer.results("nimblock", sequence)]
        script = (
            "import json, sys\n"
            "from dataclasses import asdict\n"
            "from repro.experiments.runner import RunCache, "
            "ExperimentSettings\n"
            "from repro.workload.scenarios import STRESS, scenario_sequence\n"
            "seed, events, cache_dir = int(sys.argv[1]), int(sys.argv[2]), "
            "sys.argv[3]\n"
            "cache = RunCache(cache_dir=cache_dir)\n"
            "seq = scenario_sequence(STRESS, seed, events)\n"
            "results = cache.results('nimblock', seq)\n"
            "assert cache.simulations == 0, 'fresh process re-simulated'\n"
            "print(json.dumps([asdict(r) for r in results]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-c", script,
                str(SETTINGS.seeds()[0]), str(SETTINGS.num_events),
                str(tmp_path),
            ],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected

    def test_prewarm_populates_disk_for_fresh_instances(self, tmp_path):
        sequences = _sequences()
        writer = RunCache(cache_dir=tmp_path, jobs=2)
        writer.prewarm(("rr", "fcfs"), sequences)
        reader = RunCache(cache_dir=tmp_path)
        assert reader.prewarm(("rr", "fcfs"), sequences, jobs=2) == 0
        assert reader.simulations == 0
        assert reader.disk_hits == 2 * len(sequences)
        for name in ("rr", "fcfs"):
            for sequence in sequences:
                assert reader.results(name, sequence) == writer.results(
                    name, sequence
                )

    def test_config_change_misses_instead_of_stale_hit(self, tmp_path):
        sequence = _sequences()[0]
        ten_slots = RunCache(cache_dir=tmp_path)
        ten_slots.grid(
            ("nimblock",), {10: [sequence]},
            configs={10: SystemConfig(num_slots=10)},
        )
        five_slots = RunCache(cache_dir=tmp_path)
        five_slots.grid(
            ("nimblock",), {5: [sequence]},
            configs={5: SystemConfig(num_slots=5)},
        )
        assert five_slots.simulations == 1, (
            "a different SystemConfig must never be served a cached run"
        )
        assert five_slots.disk_hits == 0

    def test_invalidate_memory_and_disk(self, tmp_path):
        sequence = _sequences()[0]
        cache = RunCache(cache_dir=tmp_path)
        cache.results("fcfs", sequence)
        cache.invalidate()
        cache.results("fcfs", sequence)  # memory dropped, disk still warm
        assert cache.simulations == 1
        assert cache.disk_hits == 1
        cache.invalidate(disk=True)
        cache.results("fcfs", sequence)
        assert cache.simulations == 2

    def test_corrupt_entry_raises_experiment_error(self, tmp_path):
        sequence = _sequences()[0]
        cache = RunCache(cache_dir=tmp_path)
        cache.results("fcfs", sequence)
        for path in Path(tmp_path).glob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        fresh = RunCache(cache_dir=tmp_path)
        with pytest.raises(ExperimentError, match="corrupt"):
            fresh.results("fcfs", sequence)


class TestGrid:
    """One grid read: every study's plain closed runs share the cache,
    keyed per (scheduler, sequence, platform)."""

    def test_platforms_are_separate_runs(self):
        cache = RunCache()
        sequence = TINY.sequences(STRESS)[0]
        pools = cache.grid(
            ("nimblock",), {4: [sequence], 10: [sequence]},
            configs={4: SystemConfig(num_slots=4),
                     10: SystemConfig(num_slots=10)},
        )
        assert cache.simulations == 2
        assert pools[(4, "nimblock")] != pools[(10, "nimblock")]

    def test_pools_equal_combined_reads_for_uneven_groups(self):
        sequences = _sequences()
        cache = RunCache(jobs=2)
        pools = cache.grid(
            ("fcfs", "rr"), {"both": sequences, "first": sequences[:1]}
        )
        for name in ("fcfs", "rr"):
            assert pools[("both", name)] == cache.combined(name, sequences)
            assert pools[("first", name)] == cache.combined(
                name, sequences[:1]
            )
        assert cache.simulations == 2 * len(sequences)

    def test_default_platform_runs_are_shared_across_studies(self):
        from repro.experiments import ext_estimates, fig5_response

        cache = RunCache()
        fig5_response.run(TINY, cache)
        before = cache.simulations
        ext_estimates.run(TINY, cache, error_levels=(0.0, 0.1))
        # Error 0.0 is the default platform: fig5's stress runs serve it.
        assert cache.simulations - before == 3

    def test_platform_sweep_is_served_from_disk(self, tmp_path):
        from repro.experiments import ext_capacity

        ext_capacity.run(
            TINY, RunCache(cache_dir=tmp_path), slot_counts=(4, 10)
        )
        warm = RunCache(cache_dir=tmp_path)
        ext_capacity.run(TINY, warm, slot_counts=(4, 10))
        assert warm.simulations == 0
        assert warm.disk_hits == 2


class TestCacheKeying:
    def test_label_collision_with_different_events_raises(self):
        events_a = [EventSpec("lenet", 1, 3, 0.0)]
        events_b = [EventSpec("imgc", 2, 9, 0.0)]
        cache = RunCache()
        cache.results("fcfs", EventSequence(events_a, label="dup"))
        with pytest.raises(ExperimentError, match="label 'dup' reused"):
            cache.results("fcfs", EventSequence(events_b, label="dup"))

    def test_same_label_same_events_is_a_hit(self):
        events = [EventSpec("lenet", 1, 3, 0.0)]
        cache = RunCache()
        first = cache.results("fcfs", EventSequence(events, label="same"))
        second = cache.results("fcfs", EventSequence(list(events), label="same"))
        assert first == second
        assert cache.simulations == 1
        assert cache.memory_hits == 1

    def test_unlabelled_sequence_rejected(self):
        events = [EventSpec("lenet", 1, 3, 0.0)]
        with pytest.raises(ExperimentError, match="labelled"):
            RunCache().results("fcfs", EventSequence(events))

    def test_sequence_fingerprint_tracks_contents(self):
        seq_a = scenario_sequence(STRESS, 1, 5)
        seq_b = scenario_sequence(STRESS, 2, 5)
        assert sequence_fingerprint(seq_a) != sequence_fingerprint(seq_b)
        assert sequence_fingerprint(seq_a) == sequence_fingerprint(
            scenario_sequence(STRESS, 1, 5)
        )

    def test_config_fingerprint_stable_across_instances(self):
        assert config_fingerprint(SystemConfig()) == config_fingerprint(
            SystemConfig()
        )
        assert config_fingerprint(SystemConfig()) != config_fingerprint(
            SystemConfig(num_slots=9)
        )


def _nan_equal(a, b):
    """Structural equality where NaN == NaN (empty-mean aggregates)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _nan_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _nan_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


class TestExperimentParityThroughPrewarm:
    """Whole experiment modules give identical figures either way."""

    def test_fig5_parallel_equals_serial(self):
        from repro.experiments import fig5_response

        settings = ExperimentSettings(num_sequences=1, num_events=6)
        serial = fig5_response.run(cache=RunCache(), settings=settings)
        fanned = fig5_response.run(cache=RunCache(jobs=3), settings=settings)
        assert serial == fanned

    def test_ext_faults_parallel_equals_serial(self):
        from repro.experiments import ext_faults

        settings = ExperimentSettings(num_sequences=1, num_events=5)
        kwargs = dict(
            settings=settings,
            fault_rates=(0.0, 0.1),
            schedulers=("rr", "nimblock"),
        )
        serial = ext_faults.run(cache=RunCache(jobs=1), **kwargs)
        fanned = ext_faults.run(cache=RunCache(jobs=3), **kwargs)
        # mttr is NaN at rate 0.0 (no recoveries), so plain == can't be
        # used even for identical results.
        assert _nan_equal(asdict(serial), asdict(fanned))
