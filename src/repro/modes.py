"""The run-mode vocabulary shared by every layer of the stack.

One ``mode=`` parameter travels uniformly through
:class:`~repro.hypervisor.hypervisor.Hypervisor`, the
:func:`~repro.facade.simulate` / :func:`~repro.facade.serve` /
:func:`~repro.facade.fleet` facades and the CLI. A registered study
takes its mode from the :class:`~repro.experiments.runner.RunCache`
it is given; studies that read trace rows run full mode whatever the
cache says. The service tier (``serve``, ``tune``) validates the mode
but always runs metrics mode:

``"full"``
    Record every trace row (the default). Required for row-level
    post-processing: trace export, span pairing, timelines, the
    utilization/reliability metrics.

``"metrics"``
    Skip columnar trace row appends entirely and fold completions
    directly into the (associative) observe counters and quantile
    sketches. Counter-identical to a full-mode run — same events, same
    order, same results, same lifetime counts — at a fraction of the
    cost. Trace-row-requiring actions raise
    :class:`~repro.errors.ExperimentError`.

Every layer validates through :func:`normalize_mode` so an unknown mode
fails loudly at construction, not deep inside a run.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ExperimentError

#: The run modes accepted by every ``mode=`` parameter in the stack.
MODES: Tuple[str, ...] = ("full", "metrics")


def normalize_mode(mode: str) -> str:
    """Validate and canonicalise a run mode string.

    >>> normalize_mode("metrics")
    'metrics'
    >>> normalize_mode("turbo")
    Traceback (most recent call last):
        ...
    repro.errors.ExperimentError: unknown run mode 'turbo'; known: full, metrics
    """
    if mode not in MODES:
        raise ExperimentError(
            f"unknown run mode {mode!r}; known: {', '.join(MODES)}"
        )
    return mode
