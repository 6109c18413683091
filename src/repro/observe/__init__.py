"""Observability layer over the hypervisor trace stream (``repro.observe``).

The paper's entire evaluation is post-processed from traces; this package
makes a run *watchable* the way a production multi-tenant scheduler needs:

* :mod:`repro.observe.spans` — fold paired trace kinds into per-slot /
  per-app spans (DPR config-port holds, batch items, preemption waits,
  fault outages);
* :mod:`repro.observe.metrics` — counters / gauges / histograms with
  deterministic snapshots that merge associatively across workers;
* :mod:`repro.observe.instrument` — the live hypervisor pass hooks
  (zero cost when absent; the engine has none) plus post-run trace
  folding;
* :mod:`repro.observe.exporters` — Chrome/Perfetto ``trace_event`` JSON,
  JSONL, Prometheus text;
* :mod:`repro.observe.aggregate` — sweep-level metric collection that is
  byte-identical at any ``--jobs`` count.

The snapshot-merge contract here (integer counters only, associative and
order-independent merges) is shared by the service tier's windowed SLO
metrics (``repro.service.WindowedMetrics`` / ``QuantileSketch``); see
``docs/service.md``.

CLI: ``nimblock-repro trace`` (span export) and ``nimblock-repro stats``
(metrics export). See ``docs/observability.md``.
"""

from repro.observe.aggregate import (
    collect_metrics,
    collect_snapshots,
    observed_run,
)
from repro.observe.exporters import (
    save_chrome_trace,
    snapshot_to_prometheus,
    spans_to_chrome,
    trace_to_chrome,
    trace_to_jsonl,
    validate_chrome_trace,
)
from repro.observe.instrument import (
    Instrumentation,
    observe_run,
    snapshot_run,
)
from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    merge_snapshots,
    quantile_from_histogram,
    to_prometheus,
)
from repro.observe.spans import (
    Span,
    build_spans,
    config_port_busy_ms,
    expected_span_count,
    spans_by_category,
)

__all__ = [
    "collect_metrics",
    "collect_snapshots",
    "observed_run",
    "save_chrome_trace",
    "snapshot_to_prometheus",
    "spans_to_chrome",
    "trace_to_chrome",
    "trace_to_jsonl",
    "validate_chrome_trace",
    "Instrumentation",
    "observe_run",
    "snapshot_run",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "merge_snapshots",
    "quantile_from_histogram",
    "to_prometheus",
    "Span",
    "build_spans",
    "config_port_busy_ms",
    "expected_span_count",
    "spans_by_category",
]
