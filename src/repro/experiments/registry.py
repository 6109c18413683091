"""Experiment registry: one uniform public API over every study.

Historically each ``fig*`` / ``table*`` / ``ext_*`` module grew its own
``run`` signature and the CLI guessed capabilities by introspection
(the old ``_needs_runs(module)`` hack). The registry replaces that with a
declared, uniform contract:

* every experiment module exposes
  ``run(settings=None, cache=None, *, <study knobs>) -> <module result>``
  and ``format_result(result) -> str``;
* the :class:`~repro.experiments.runner.RunCache` is the one carrier of
  run settings: its ``jobs`` (fan-out width) and ``mode`` (run mode)
  reach every study through ``cache``, never as arguments;
* the registry wraps each module in an :class:`Experiment` whose
  ``run(settings=None, cache=None)`` returns an
  :class:`ExperimentResult` (name + raw value + rendered text);
* dispatch — CLI, benchmarks, notebooks — goes through
  :func:`get_experiment` / :func:`run_experiment` and never special-cases
  a module again.

Modules are imported lazily on first lookup, so importing the registry
(or ``repro`` itself) stays cheap.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentSettings, RunCache


@dataclass(frozen=True)
class ExperimentResult:
    """Uniform result envelope: raw value plus its rendered text."""

    name: str
    value: Any
    text: str
    title: str = ""


@dataclass(frozen=True)
class Experiment:
    """Registry entry binding a CLI name to one experiment module."""

    name: str
    module_path: str
    _module_cache: List[ModuleType] = field(
        default_factory=list, repr=False, compare=False
    )

    def module(self) -> ModuleType:
        """The lazily imported experiment module."""
        if not self._module_cache:
            self._module_cache.append(
                importlib.import_module(self.module_path)
            )
        return self._module_cache[0]

    @property
    def title(self) -> str:
        """First docstring line of the module (what the study produces)."""
        doc = self.module().__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else self.name

    def run(
        self,
        settings: Optional[ExperimentSettings] = None,
        cache: Optional[RunCache] = None,
    ) -> ExperimentResult:
        """Uniform entry point: execute, render, wrap.

        ``settings`` defaults to :meth:`ExperimentSettings.from_env`;
        ``cache`` defaults to a fresh memory-only :class:`RunCache`
        (serial unless ``REPRO_JOBS`` says otherwise, full mode).
        Results are independent of the cache's ``jobs`` and ``mode``.
        """
        module = self.module()
        if settings is None:
            settings = ExperimentSettings.from_env()
        value = module.run(settings, cache or RunCache())
        return ExperimentResult(
            name=self.name, value=value,
            text=module.format_result(value), title=self.title,
        )


#: Every registered experiment, in CLI-name order. Names match the
#: command line (hyphenated); module paths are imported on first use.
_SPECS: Tuple[Tuple[str, str], ...] = (
    ("ext-autotune", "repro.experiments.ext_autotune"),
    ("ext-batching", "repro.experiments.ext_batching"),
    ("ext-capacity", "repro.experiments.ext_capacity"),
    ("ext-cluster", "repro.experiments.ext_cluster"),
    ("ext-estimates", "repro.experiments.ext_estimates"),
    ("ext-faults", "repro.experiments.ext_faults"),
    ("ext-hetero", "repro.experiments.ext_hetero"),
    ("ext-interconnect", "repro.experiments.ext_interconnect"),
    ("ext-mixes", "repro.experiments.ext_mixes"),
    ("ext-overload", "repro.experiments.ext_overload"),
    ("ext-scaleout", "repro.experiments.ext_scaleout"),
    ("ext-schedulers", "repro.experiments.ext_schedulers"),
    ("ext-seeds", "repro.experiments.ext_seeds"),
    ("ext-service", "repro.experiments.ext_service"),
    ("ext-utilization", "repro.experiments.ext_utilization"),
    ("fig2", "repro.experiments.fig2_modes"),
    ("fig4", "repro.experiments.fig4_taskgraph"),
    ("fig5", "repro.experiments.fig5_response"),
    ("fig6", "repro.experiments.fig6_tail"),
    ("fig7", "repro.experiments.fig7_deadlines"),
    ("fig8", "repro.experiments.fig8_breakdown"),
    ("fig9", "repro.experiments.fig9_ablation"),
    ("fig10", "repro.experiments.fig10_alexnet"),
    ("fig11", "repro.experiments.fig11_throughput"),
    ("overhead", "repro.experiments.overhead"),
    ("report", "repro.experiments.report"),
    ("table1", "repro.experiments.table1"),
    ("table2", "repro.experiments.table2"),
    ("table3", "repro.experiments.table3"),
)

_REGISTRY: Dict[str, Experiment] = {
    name: Experiment(name, path) for name, path in _SPECS
}


def experiment_names() -> Tuple[str, ...]:
    """Every registered experiment name, sorted."""
    return tuple(sorted(_REGISTRY))


def all_experiments() -> Tuple[Experiment, ...]:
    """Every registered experiment, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def get_experiment(name: str) -> Experiment:
    """Look one experiment up by CLI name."""
    experiment = _REGISTRY.get(name)
    if experiment is None:
        raise ExperimentError(
            f"unknown experiment {name!r}; known: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return experiment


def run_experiment(
    name: str,
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
) -> ExperimentResult:
    """One-call uniform dispatch: look up, run, wrap."""
    return get_experiment(name).run(settings, cache)
