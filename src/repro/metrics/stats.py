"""Statistical helpers: bootstrap confidence intervals over event samples.

The paper reports point estimates; a careful reproduction should state
how tight they are. ``bootstrap_ci`` resamples per-event values with
replacement (seeded, numpy-backed) and returns a percentile confidence
interval for any statistic of the sample.

numpy is optional for the package (``dependencies = []``): it is
imported only when a confidence interval is computed, so importing
``repro.metrics`` or any experiment never needs it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.errors import ExperimentError


def bootstrap_ci(
    values: Sequence[float],
    statistic: Optional[Callable] = None,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float, float]:
    """(point estimate, low, high) for ``statistic`` over ``values``.

    Percentile bootstrap: resample with replacement, evaluate the
    statistic (a function of a numpy array; None means the mean) on
    each resample, take the (1-confidence)/2 tails.
    """
    if not values:
        raise ExperimentError("cannot bootstrap an empty sample")
    if not 0 < confidence < 1:
        raise ExperimentError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if resamples < 10:
        raise ExperimentError(f"resamples must be >= 10, got {resamples}")
    import numpy as np

    if statistic is None:
        statistic = np.mean
    data = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    estimates = np.empty(resamples)
    n = len(data)
    for index in range(resamples):
        sample = data[rng.integers(0, n, size=n)]
        estimates[index] = statistic(sample)
    tail = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [tail, 1.0 - tail])
    return float(statistic(data)), float(low), float(high)


def reduction_ci(
    baseline_responses: Sequence[float],
    other_responses: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float, float]:
    """CI for the mean-response reduction factor (the Figure 5 statistic).

    Pairs are resampled together so the correlation between an event's
    baseline and sharing responses is preserved.
    """
    if len(baseline_responses) != len(other_responses):
        raise ExperimentError("paired samples must have equal length")
    if not baseline_responses:
        raise ExperimentError("cannot bootstrap an empty sample")
    import numpy as np

    base = np.asarray(baseline_responses, dtype=float)
    other = np.asarray(other_responses, dtype=float)
    rng = np.random.default_rng(seed)
    n = len(base)
    estimates = np.empty(resamples)
    for index in range(resamples):
        pick = rng.integers(0, n, size=n)
        estimates[index] = base[pick].mean() / other[pick].mean()
    tail = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [tail, 1.0 - tail])
    return float(base.mean() / other.mean()), float(low), float(high)
