"""Open-loop online service tier (``repro.service``).

Every closed experiment replays a finite sequence and keeps the full
trace; this package runs the shared-FPGA platform as a *service* under
sustained open-loop load — the regime the admission controller and
watchdog (``repro.admission``) exist for — at millions of submissions
with O(1) memory:

* :mod:`repro.service.sketch` — bounded, exactly-mergeable quantile
  sketch (documented 1% relative-error bound);
* :mod:`repro.service.windows` — tumbling-window streaming SLO metrics
  with associative merges (``--jobs N`` byte-identity);
* :mod:`repro.service.loop` — the :class:`ServiceLoop` feeding a lazy
  :class:`~repro.workload.arrivals.ArrivalProcess` into the unmodified
  hypervisor, discarding completed-app state as it goes;
* :mod:`repro.service.snapshot` — quiescent-boundary checkpoints and
  deterministic resume.

CLI: ``nimblock-repro serve``; capacity study: ``nimblock-repro
ext-service``; docs: ``docs/service.md``.
"""

from repro.service.loop import (
    ServiceLoop,
    ServiceReport,
    format_report,
)
from repro.service.sketch import (
    DEFAULT_ALPHA,
    QuantileSketch,
    SketchError,
    merge_sketches,
)
from repro.service.snapshot import (
    SNAPSHOT_FORMAT,
    build_snapshot,
    load_snapshot,
    save_snapshot,
    validate_snapshot,
)
from repro.service.windows import (
    DEFAULT_WINDOW_MS,
    WindowedMetrics,
    WindowStats,
    merge_windowed,
)

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_WINDOW_MS",
    "QuantileSketch",
    "SNAPSHOT_FORMAT",
    "ServiceLoop",
    "ServiceReport",
    "SketchError",
    "WindowStats",
    "WindowedMetrics",
    "build_snapshot",
    "format_report",
    "load_snapshot",
    "merge_sketches",
    "merge_windowed",
    "save_snapshot",
    "validate_snapshot",
]
