"""Tests for the experiment registry (repro.experiments.registry)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.registry import (
    Experiment,
    ExperimentResult,
    all_experiments,
    experiment_names,
    get_experiment,
    run_experiment,
)
from repro.experiments.runner import ExperimentSettings, RunCache

TINY = ExperimentSettings(num_sequences=1, num_events=5)

#: Experiments cheap enough to execute inside the uniform-dispatch test.
CHEAP = ("fig2", "fig4", "table1", "table2")


class TestRegistryContents:
    def test_every_cli_experiment_is_registered(self):
        names = experiment_names()
        assert len(names) == 29
        for expected in ("fig2", "fig5", "fig11", "table1", "table3",
                         "overhead", "report", "ext-faults", "ext-seeds",
                         "ext-service", "ext-cluster", "ext-autotune"):
            assert expected in names

    def test_all_experiments_sorted_and_typed(self):
        experiments = all_experiments()
        assert [e.name for e in experiments] == sorted(experiment_names())
        for experiment in experiments:
            assert isinstance(experiment, Experiment)

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ExperimentError, match="fig2"):
            get_experiment("fig99")

    def test_titles_come_from_module_docstrings(self):
        assert "Figure 4" in get_experiment("fig4").title
        assert "Table 2" in get_experiment("table2").title


class TestUniformInvocation:
    @pytest.mark.parametrize("name", CHEAP)
    def test_run_returns_uniform_envelope(self, name):
        result = run_experiment(name, TINY, cache=RunCache())
        assert isinstance(result, ExperimentResult)
        assert result.name == name
        assert isinstance(result.text, str) and result.text
        assert result.value is not None
        assert result.title == get_experiment(name).title

    def test_text_matches_module_formatter(self):
        experiment = get_experiment("table2")
        result = experiment.run(TINY)
        assert result.text == experiment.module().format_result(result.value)

    def test_run_defaults_settings_and_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEQUENCES", "1")
        monkeypatch.setenv("REPRO_EVENTS", "4")
        result = run_experiment("fig2")
        assert result.name == "fig2"

    def test_simulation_experiment_through_registry(self):
        result = run_experiment("fig5", TINY, RunCache(jobs=1))
        assert "nimblock" in result.text

    def test_every_module_accepts_the_uniform_signature(self):
        """run(settings, cache) must bind everywhere, and the cache is
        the one carrier of jobs and mode: no study takes either."""
        import inspect

        for experiment in all_experiments():
            signature = inspect.signature(experiment.module().run)
            signature.bind(TINY, RunCache(mode="metrics"))
            assert not {"jobs", "mode"} & set(signature.parameters), (
                experiment.name
            )


class TestShimRetired:
    def test_swapped_positional_order_now_fails_loudly(self):
        """The PR-3 ``uniform_args`` swap shim is gone: passing the
        cache first is a plain error, not a silently-reordered call."""
        from repro.experiments import fig5_response

        with pytest.raises((TypeError, AttributeError)):
            fig5_response.run(RunCache(), TINY)

    def test_uniform_args_is_gone(self):
        import repro
        import repro.experiments
        import repro.experiments.runner as runner

        assert not hasattr(runner, "uniform_args")
        assert "uniform_args" not in repro.experiments.__all__
        with pytest.raises(AttributeError):
            repro.uniform_args

    def test_unknown_mode_rejected(self):
        from repro.experiments import fig5_response

        with pytest.raises(ExperimentError, match="unknown run mode"):
            fig5_response.run(TINY, RunCache(jobs=1, mode="fast"))


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        assert repro.run_experiment is run_experiment
        assert callable(repro.simulate)
        assert callable(repro.build_spans)
        assert repro.__version__

    def test_simulate_facade_round_trip(self):
        import repro

        run = repro.simulate(
            "nimblock", scenario="stress", seed=1, num_events=5,
            observe=True,
        )
        assert run.results
        assert len(run.spans()) > 0
        metrics = run.metrics()
        assert metrics["counters"]["nimblock_apps_retired_total"]["value"] \
            == len(run.results)

    def test_simulate_unobserved_has_no_metrics(self):
        import repro

        run = repro.simulate("fcfs", scenario="standard", seed=2,
                             num_events=4)
        assert run.metrics() is None
        assert len(run.trace) > 0

    def test_simulate_unknown_scenario_raises(self):
        import repro

        with pytest.raises(ExperimentError, match="stress"):
            repro.simulate(scenario="nope", num_events=3)
