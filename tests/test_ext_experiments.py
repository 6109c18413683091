"""Tests for the extension experiments (mixes, estimates, interconnect,
scale-out, extended schedulers) at small scale."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.experiments import (
    ext_estimates,
    ext_interconnect,
    ext_mixes,
    ext_scaleout,
    ext_schedulers,
)
from repro.experiments.runner import ExperimentSettings, RunCache
from repro.workload.mixes import MIXES, mix_sequence

TINY = ExperimentSettings(num_sequences=1, num_events=6)


class TestMixes:
    def test_all_mixes_draw_only_their_pool(self):
        for name, pool in MIXES.items():
            sequence = mix_sequence(name, seed=3, num_events=30)
            assert set(sequence.benchmarks_used()) <= set(pool)

    def test_unknown_mix_rejected(self):
        with pytest.raises(WorkloadError, match="unknown mix"):
            mix_sequence("spiky", seed=1, num_events=5)

    def test_experiment_produces_all_cells(self):
        result = ext_mixes.run(
            cache=RunCache(), settings=TINY,
            mixes=("balanced", "no_outlier"),
        )
        assert set(result.mixes) == {"balanced", "no_outlier"}
        for mix in result.mixes:
            for scheduler in result.schedulers:
                assert result.reduction(mix, scheduler) > 0
        assert "mix" in ext_mixes.format_result(result)


class TestEstimates:
    def test_sweep_produces_all_cells(self):
        result = ext_estimates.run(
            settings=TINY, error_levels=(0.0, 0.3)
        )
        for error in (0.0, 0.3):
            for scheduler in result.schedulers:
                assert result.reduction(error, scheduler) > 0
        assert result.degradation("nimblock") > 0.5
        assert "estimate error" in ext_estimates.format_result(result)


class TestInterconnectStudy:
    def test_ps_routed_never_cheaper_than_free(self):
        result = ext_interconnect.run(settings=TINY)
        assert result.overhead_vs_free("zero_cost") == 1.0
        assert result.overhead_vs_free("ps_routed") >= 1.0
        assert result.overhead_vs_free("noc") <= result.overhead_vs_free(
            "ps_routed"
        ) + 1e-9
        assert "interconnect" in ext_interconnect.format_result(result)


class TestScaleOut:
    def test_fleet_speedup_positive(self):
        result = ext_scaleout.run(settings=TINY, fleet_sizes=(1, 2))
        for dispatch in ("round_robin", "least_loaded"):
            assert result.speedup(2, dispatch) >= 1.0
        assert "scale-out" in ext_scaleout.format_result(result)


class TestSeedSensitivity:
    def test_statistics_and_stability(self):
        from repro.experiments import ext_seeds

        result = ext_seeds.run(
            cache=RunCache(), settings=TINY, blocks=3
        )
        assert result.blocks == 3
        for scheduler in result.schedulers:
            assert len(result.block_values(scheduler)) == 3
            assert result.mean(scheduler) > 0
            assert result.stdev(scheduler) >= 0
        text = ext_seeds.format_result(result)
        assert "seed sensitivity" in text
        assert "cv" in text

    def test_blocks_follow_the_settings_base_seed(self):
        from repro.experiments import ext_seeds

        default = ext_seeds.run(
            ExperimentSettings(2, 4), RunCache(), blocks=2
        )
        moved = ext_seeds.run(
            ExperimentSettings(2, 4, base_seed=7), RunCache(), blocks=2
        )
        assert moved.reductions != default.reductions


class TestHeteroFleets:
    def test_fleets_complete_and_report(self):
        from repro.experiments import ext_hetero

        result = ext_hetero.run(settings=TINY)
        # Ordering claims need statistical scale (the bench asserts them
        # at 3x20); here we check completeness and accounting only.
        assert result.response("2x big") <= result.response("1x big")
        big, edge = result.placements["big + edge"]
        assert big + edge == TINY.num_sequences * TINY.num_events
        assert "heterogeneous" in ext_hetero.format_result(result).lower()


class TestFleetStudiesJobsAndMode:
    def test_results_independent_of_jobs_and_mode(self):
        from repro.experiments import ext_hetero

        for run in (
            ext_hetero.run,
            lambda **kw: ext_scaleout.run(fleet_sizes=(1, 2), **kw),
        ):
            serial = run(settings=TINY, cache=RunCache(jobs=1))
            assert serial == run(
                settings=TINY, cache=RunCache(jobs=2, mode="metrics")
            )


class TestExtendedSchedulers:
    def test_tables_complete(self):
        result = ext_schedulers.run(cache=RunCache(), settings=TINY)
        for scenario in result.scenarios:
            for scheduler in result.schedulers:
                assert result.reduction(scenario, scheduler) > 0
        text = ext_schedulers.format_result(result)
        assert "dml_static" in text
        assert "priority class" in text
