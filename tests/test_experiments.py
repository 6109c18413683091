"""Tests for the experiment harness (repro.experiments), small scale."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    fig5_response,
    fig6_tail,
    fig7_deadlines,
    fig8_breakdown,
    fig9_ablation,
    table1,
    table2,
    table3,
)
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
    run_closed,
    run_sequence,
)
from repro.schedulers.base import SchedulerPolicy
from repro.workload.scenarios import STRESS, scenario_sequence

#: Tiny but statistically meaningful settings for harness tests.
SMALL = ExperimentSettings(num_sequences=1, num_events=8)


@pytest.fixture(scope="module")
def cache():
    """One shared cache so the experiment tests reuse simulations."""
    return RunCache()


class TestRunner:
    def test_run_sequence_returns_event_count(self):
        seq = scenario_sequence(STRESS, seed=1, num_events=4)
        results = run_sequence("fcfs", seq)
        assert len(results) == 4

    def test_cache_reuses_runs(self):
        cache = RunCache()
        seq = scenario_sequence(STRESS, seed=2, num_events=3)
        first = cache.results("fcfs", seq)
        second = cache.results("fcfs", seq)
        assert first is second
        assert cache.simulations == 1

    def test_cache_requires_labels(self):
        from repro.workload.events import EventSequence, EventSpec

        cache = RunCache()
        seq = EventSequence([EventSpec("lenet", 1, 1, 0.0)], label="")
        with pytest.raises(ExperimentError, match="label"):
            cache.results("fcfs", seq)

    def test_settings_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEQUENCES", "3")
        monkeypatch.setenv("REPRO_EVENTS", "7")
        settings = ExperimentSettings.from_env()
        assert settings.num_sequences == 3
        assert settings.num_events == 7
        monkeypatch.setenv("REPRO_EVENTS", "zero")
        with pytest.raises(ExperimentError, match="integer"):
            ExperimentSettings.from_env()
        monkeypatch.setenv("REPRO_EVENTS", "0")
        with pytest.raises(ExperimentError, match=">= 1"):
            ExperimentSettings.from_env()

    def test_base_seed_env_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_BASE_SEED", "12345")
        monkeypatch.setenv("REPRO_SEQUENCES", "3")
        settings = ExperimentSettings.from_env()
        assert settings.base_seed == 12345
        assert settings.seeds() == [12345, 12346, 12347]

    def test_base_seed_defaults_without_env(self, monkeypatch):
        from repro.experiments.runner import BASE_SEED

        monkeypatch.delenv("REPRO_BASE_SEED", raising=False)
        settings = ExperimentSettings.from_env()
        assert settings.base_seed == BASE_SEED
        assert settings.seeds()[0] == BASE_SEED

    def test_base_seed_env_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_BASE_SEED", "not-a-seed")
        with pytest.raises(ExperimentError, match="REPRO_BASE_SEED.*integer"):
            ExperimentSettings.from_env()
        monkeypatch.setenv("REPRO_BASE_SEED", "0")
        with pytest.raises(ExperimentError, match="REPRO_BASE_SEED.*>= 1"):
            ExperimentSettings.from_env()

    def test_base_seed_changes_stimuli(self):
        default = ExperimentSettings(num_sequences=1, num_events=5)
        shifted = ExperimentSettings(
            num_sequences=1, num_events=5, base_seed=default.base_seed + 100
        )
        seq_a = scenario_sequence(STRESS, default.seeds()[0], 5)
        seq_b = scenario_sequence(STRESS, shifted.seeds()[0], 5)
        assert list(seq_a) != list(seq_b)

    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in text


class _NeverConfigures(SchedulerPolicy):
    """A policy that never loads a task, so no run can drain."""

    name = "never"

    def decide(self, ctx):
        return None


class TestDrainContract:
    """Every closed-run entry point fails an undrained run the same way."""

    SEQUENCE = scenario_sequence(STRESS, seed=1, num_events=3)

    @pytest.fixture(autouse=True)
    def stuck_scheduler(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.runner.make_scheduler",
            lambda name: _NeverConfigures(),
        )

    def _assert_drain_error(self, run) -> None:
        with pytest.raises(ExperimentError) as info:
            run()
        message = str(info.value)
        assert "'fcfs'" in message
        assert repr(self.SEQUENCE.label) in message
        assert "0 retired + 0 shed of 3 admitted" in message

    def test_run_closed(self):
        self._assert_drain_error(lambda: run_closed(
            "fcfs", self.SEQUENCE.to_requests(), label=self.SEQUENCE.label,
        ))

    def test_simulate(self):
        from repro.facade import simulate

        self._assert_drain_error(
            lambda: simulate("fcfs", sequence=self.SEQUENCE)
        )

    def test_checked_run(self):
        from repro.invariants import checked_run

        self._assert_drain_error(lambda: checked_run("fcfs", self.SEQUENCE))


class TestStaticTables:
    def test_table1_matches_paper_and_fits(self):
        result = table1.run()
        assert result.floorplan_valid
        assert result.slot_range["DSP"] == (46, 92)
        assert "Table 1" in table1.format_result(result)

    def test_table2_matches_paper_exactly(self):
        result = table2.run()
        assert result.all_match
        text = table2.format_result(result)
        assert "alexnet" in text and "184" in text


class TestWorkloadExperiments:
    def test_fig5_nimblock_wins(self, cache):
        result = fig5_response.run(cache=cache, settings=SMALL)
        for scenario in result.scenarios:
            assert result.best_scheduler(scenario) == "nimblock"
            for scheduler in result.schedulers:
                assert result.reduction(scenario, scheduler) > 0
        assert "Figure 5" in fig5_response.format_result(result)

    def test_fig6_tails_positive(self, cache):
        result = fig6_tail.run(cache=cache, settings=SMALL)
        for key, value in result.tails.items():
            assert value > 0
        assert "Figure 6" in fig6_tail.format_result(result)

    def test_fig7_curves_monotone(self, cache):
        result = fig7_deadlines.run(cache=cache, settings=SMALL)
        for curve in result.curves.values():
            assert all(
                a >= b - 1e-9 for a, b in zip(curve.rates, curve.rates[1:])
            )
        points = result.error_points("stress")
        assert set(points) == set(result.schedulers)
        assert "Figure 7" in fig7_deadlines.format_result(result)

    def test_fig8_fractions_sane(self, cache):
        result = fig8_breakdown.run(cache=cache, settings=SMALL)
        for breakdown in result.breakdowns.values():
            assert 0 < breakdown.run_fraction
            assert 0 <= breakdown.wait_fraction
            assert 0 < breakdown.reconfig_fraction < 1
        assert "Figure 8" in fig8_breakdown.format_result(result)

    def test_fig9_batch1_neutral(self, cache):
        result = fig9_ablation.run(
            cache=cache, settings=SMALL, batch_sizes=(1, 5)
        )
        for variant in result.variants:
            assert result.relative_response(1, variant) == pytest.approx(
                1.0, abs=0.25
            )
        assert result.relative_response(5, "nimblock") == 1.0
        assert "Figure 9" in fig9_ablation.format_result(result)

    def test_table3_covers_all_benchmarks(self, cache):
        settings = ExperimentSettings(num_sequences=2, num_events=12)
        result = table3.run(cache=cache, settings=settings)
        from repro.apps.catalog import BENCHMARK_NAMES

        for name in BENCHMARK_NAMES:
            assert result.execution_s[name] > 0
            for scheduler in result.schedulers:
                assert result.response(scheduler, name) > 0
        assert "Table 3" in table3.format_result(result)
