"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry points of each layer named after
this repository's packages (engine scheduling and run loop, hypervisor,
scheduler policies, the configuration port, admission and watchdog,
trace/fold, replay, service windows and sketch, cluster placement and
merge, the run cache, the arrival stream). No ``src/`` file is edited: the
wrappers replace class and module attributes before the workload builds
its objects. Engine callbacks are wrapped as they are scheduled, each in a
span named after the module that owns the callback, which is what
separates ``sim`` from ``hypervisor``, ``overlay`` and ``service``.

A span records layer, function, start, end, parent span and repetition
id. Spans are kept in memory (compact arrays) and written out by
:meth:`Tracer.write`. A layer's self time is the time of its spans minus
the time of their child spans; the tracer accumulates it as spans close.
Span clocks read ``time.perf_counter``: the program is single-threaded and
does no I/O, so its wall time is its busy time (the timed run prints the
wall / CPU ratio to show when other processes competed for the cores).
"""

from __future__ import annotations

import functools
import time
import weakref
from array import array
from typing import Callable, Dict, List, Optional

#: Layers whose self time is reported, in report order.
LAYERS = (
    "sim.engine", "sim.trace", "sim.fold", "sim.replay",
    "hypervisor", "schedulers", "overlay",
    "admission", "admission.watchdog",
    "service.loop", "service.windows", "service.sketch",
    "cluster.place", "cluster.board", "cluster.merge",
    "experiments", "workload.arrivals",
)

#: Owning-module prefix -> layer, for engine and port callbacks.
_CALLBACK_LAYERS = (
    ("repro.sim.replay", "sim.replay"),
    ("repro.sim", "sim.engine"),
    ("repro.hypervisor", "hypervisor"),
    ("repro.overlay", "overlay"),
    ("repro.schedulers", "schedulers"),
    ("repro.core", "schedulers"),
    ("repro.admission.watchdog", "admission.watchdog"),
    ("repro.admission", "admission"),
    ("repro.service", "service.loop"),
    ("repro.cluster", "cluster.board"),
    ("repro.experiments", "experiments"),
    ("repro.workload", "workload.arrivals"),
)


class _HypervisorStats:
    """Counters read off one live hypervisor after its run."""

    __slots__ = ("processed", "passes", "reconfigs", "port_busy_ms",
                 "span_ms", "slot_ms", "run_busy_ms", "preemptions")

    def __init__(self) -> None:
        self.processed = self.passes = self.reconfigs = 0
        self.port_busy_ms = self.span_ms = self.slot_ms = 0.0
        self.run_busy_ms = 0.0
        self.preemptions = 0

    def read(self, hv) -> None:
        from repro.sim.trace import TraceKind

        engine = hv.engine
        self.processed = engine.processed
        self.passes = hv.scheduler_passes
        port = hv.device.port
        self.reconfigs = port.total_reconfigs
        self.port_busy_ms = port.busy_ms
        self.span_ms = engine.now
        self.slot_ms = engine.now * hv.config.num_slots
        fold = getattr(hv.trace, "fold", None)
        if fold is not None:
            self.run_busy_ms = fold.item_busy_done_ms
        else:
            # Full-mode runs keep their apps: every item ran for its
            # task latency (the default interconnect charges nothing).
            self.run_busy_ms = sum(
                task.items_done * task.latency_ms
                for app in hv.retired for task in app.tasks.values()
            )
        self.preemptions = hv.trace.count(TraceKind.TASK_PREEMPTED)


class Tracer:
    """Span store plus per-repetition self times and counts."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        #: Self seconds per layer id in the current repetition.
        self.self_s: List[float] = []
        for layer in LAYERS:
            self.layer_id(layer)
        self.funcs: List[str] = []
        self._func_ids: Dict[str, int] = {}
        self._module_layers: Dict[str, int] = {}
        #: Layer id per engine-callback function id.
        self.fire_layer: Dict[int, int] = {}
        # Span columns, one entry per span.
        self.span_layer = array("H")
        self.span_func = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_rep = array("H")
        #: Open spans: [index, layer, start, child time].
        self._stack: List[list] = []
        #: Repetition id stamped on new spans (0 = outside repetitions).
        self.rep = 0
        self._reset_rep_state()

    # -- interning -------------------------------------------------------
    def layer_id(self, name: str) -> int:
        index = self._layer_ids.get(name)
        if index is None:
            index = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
            self.self_s.append(0.0)
        return index

    def func_id(self, name: str) -> int:
        index = self._func_ids.get(name)
        if index is None:
            index = self._func_ids[name] = len(self.funcs)
            self.funcs.append(name)
        return index

    def module_layer(self, module: str) -> int:
        index = self._module_layers.get(module)
        if index is None:
            name = "other"
            for prefix, layer in _CALLBACK_LAYERS:
                if module.startswith(prefix):
                    name = layer
                    break
            index = self._module_layers[module] = self.layer_id(name)
        return index

    # -- spans -------------------------------------------------------------
    def enter(self, layer: int, func: int) -> None:
        start = time.perf_counter()
        stack = self._stack
        index = len(self.span_start)
        self.span_layer.append(layer)
        self.span_func.append(func)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_rep.append(self.rep)
        stack.append([index, layer, start, 0.0])

    def leave(self) -> None:
        end = time.perf_counter()
        stack = self._stack
        index, layer, start, child = stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if stack:
            stack[-1][3] += duration
        self.span_end[index] = end

    def nested_in(self, layer: int) -> bool:
        """True when the innermost open span belongs to ``layer``."""
        stack = self._stack
        return bool(stack) and stack[-1][1] == layer

    # -- repetitions -------------------------------------------------------
    def _reset_rep_state(self) -> None:
        self.self_s = [0.0] * len(self.layers)
        self.counts: Dict[str, int] = {}
        #: Live engine callbacks fired, per function id.
        self.fires: Dict[int, int] = {}
        self.hypervisors: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self.hv_stats: List[_HypervisorStats] = []
        #: Live replay caches and admission controllers seen, by id.
        self.replay_caches: dict = {}
        self.controllers: dict = {}

    def count(self, name: str, amount: int = 1) -> None:
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount

    def begin_rep(self, rep: int) -> None:
        self._reset_rep_state()
        self.rep = rep
        self._rep_first_span = len(self.span_start)

    def end_rep(self, total_s: float, cpu_s: float) -> dict:
        """Close a repetition; returns its self times, counts and totals."""
        for hv, stats in list(self.hypervisors.items()):
            stats.read(hv)
        layer_self = {
            name: self.self_s[index] for index, name in enumerate(self.layers)
        }
        record = {
            "rep": self.rep,
            "spans": (self._rep_first_span, len(self.span_start)),
            "total_s": total_s,
            "cpu_s": cpu_s,
            "self_s": layer_self,
            "counts": dict(self.counts),
            "fires": {self.funcs[f]: n for f, n in self.fires.items()},
            "fire_layers": {
                self.funcs[f]: self.layers[self.fire_layer[f]]
                for f in self.fires
            },
            "hv_stats": list(self.hv_stats),
            "replay_caches": list(self.replay_caches.values()),
            "controllers": list(self.controllers.values()),
        }
        self.rep = 0
        return record

    # -- output ------------------------------------------------------------
    def write(self, stem, record: dict) -> int:
        """Write the spans of one repetition; returns the span count.

        ``<stem>.bin`` holds the span columns back to back, in the order
        and array type codes ``<stem>.json`` lists (read each with
        ``array.fromfile``); the JSON also names the layer and function
        ids. Span ``i``'s parent is a span index, or -1 at top level.
        """
        import json

        first, end = record["spans"]
        parents = array(
            "i", (p - first if p >= 0 else -1
                  for p in self.span_parent[first:end])
        )
        columns = (
            ("layer", self.span_layer[first:end]),
            ("function", self.span_func[first:end]),
            ("start_s", self.span_start[first:end]),
            ("end_s", self.span_end[first:end]),
            ("parent", parents),
            ("rep", self.span_rep[first:end]),
        )
        with open(f"{stem}.bin", "wb") as out:
            for _, column in columns:
                column.tofile(out)
        header = {
            "spans": end - first,
            "columns": [[name, column.typecode] for name, column in columns],
            "layers": self.layers,
            "functions": self.funcs,
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as out:
            json.dump(header, out, indent=1)
        return end - first


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _span(tracer: Tracer, fn, layer: str, name: Optional[str] = None,
          count: Optional[str] = None,
          weight: Optional[Callable] = None,
          outermost: bool = True,
          after: Optional[Callable] = None):
    """``fn`` wrapped in a span of ``layer``.

    ``count`` names a counter bumped per call (by ``weight(args)`` when
    given); with ``outermost`` a call made from inside another span of
    the same layer is not counted again, so rows a trace passes on to
    its own ``record`` count once. ``after(args, result)`` runs once the
    span has closed, so its bookkeeping is not charged to the layer.
    """
    lid = tracer.layer_id(layer)
    fid = tracer.func_id(name or fn.__qualname__)
    enter, leave, nested_in = tracer.enter, tracer.leave, tracer.nested_in

    def wrapper(*args, **kwargs):
        if count is not None and not (outermost and nested_in(lid)):
            tracer.count(count, 1 if weight is None else weight(args))
        enter(lid, fid)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if after is not None:
            after(args, result)
        return result

    return functools.update_wrapper(wrapper, fn)


def _patch(tracer: Tracer, owner, attr: str, layer: str, **options) -> None:
    """Replace ``owner.attr`` (function, classmethod or staticmethod)."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr
    )
    if isinstance(raw, (classmethod, staticmethod)):
        fn = raw.__func__
        name = f"{owner.__qualname__}.{attr}"
        setattr(owner, attr, type(raw)(
            _span(tracer, fn, layer, name=name, **options)
        ))
        return
    setattr(owner, attr, _span(tracer, raw, layer, **options))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (once per process)."""
    from repro.admission.controller import AdmissionController
    from repro.admission.watchdog import Watchdog
    from repro.cluster import cluster as cluster_module
    from repro.cluster import shard
    from repro.experiments import parallel, runner
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.hypervisor.queues import PendingQueue
    from repro.overlay.device import ReconfigurationPort
    from repro.schedulers.base import SchedulerPolicy
    from repro.schedulers.registry import scheduler_factories
    from repro.service.loop import ServiceLoop
    from repro.service.sketch import QuantileSketch
    from repro.service.windows import WindowedMetrics
    from repro.sim.engine import SimulationEngine
    from repro.sim.fold import TraceFold
    from repro.sim.replay import ReplayCache
    from repro.sim.trace import BoundedTrace, MetricsTrace, Trace
    from repro.workload.arrivals import ArrivalProcess
    from repro.workload.events import EventSequence, EventSpec

    enter, leave = tracer.enter, tracer.leave

    def is_live(engine) -> bool:
        # Replay records segments in scratch worlds on a subclass engine;
        # only the base engine drives the program's own simulation.
        return type(engine) is SimulationEngine

    # -- callbacks: a span named after the owning module ------------------
    def traced_callback(callback, live: bool):
        module = getattr(callback, "__module__", None) or "?"
        lid = tracer.module_layer(module)
        fid = tracer.func_id(
            getattr(callback, "__qualname__", type(callback).__qualname__)
        )
        if live:
            tracer.fire_layer[fid] = lid

        def fire(now):
            if live:
                fires = tracer.fires
                fires[fid] = fires.get(fid, 0) + 1
            enter(lid, fid)
            try:
                callback(now)
            finally:
                leave()
        return fire

    # -- sim.engine -------------------------------------------------------
    engine_lid = tracer.layer_id("sim.engine")
    for attr in ("schedule", "schedule_delay", "schedule_at",
                 "schedule_after"):
        original = SimulationEngine.__dict__[attr]
        fid = tracer.func_id(f"SimulationEngine.{attr}")

        def scheduler(self, when, callback, priority=0,
                      _original=original, _fid=fid):
            enter(engine_lid, _fid)
            try:
                return _original(
                    self, when, traced_callback(callback, is_live(self)),
                    priority,
                )
            finally:
                leave()

        setattr(SimulationEngine, attr,
                functools.update_wrapper(scheduler, original))
    _patch(tracer, SimulationEngine, "run", "sim.engine")

    credit_events = SimulationEngine.credit_events

    def credited(self, count):
        if is_live(self):
            tracer.count("engine.credited", count)
        return credit_events(self, count)

    SimulationEngine.credit_events = functools.update_wrapper(
        credited, credit_events
    )

    # -- sim.trace / sim.fold ---------------------------------------------
    for cls in (Trace, MetricsTrace, BoundedTrace):
        _patch(tracer, cls, "record", "sim.trace", count="trace.records")
        _patch(tracer, cls, "record_many", "sim.trace",
               count="trace.records", weight=lambda args: len(args[1]))
    _patch(tracer, TraceFold, "feed", "sim.fold")

    # -- sim.replay -------------------------------------------------------
    try_replay = ReplayCache.try_replay
    replay_lid = tracer.layer_id("sim.replay")
    replay_fid = tracer.func_id("ReplayCache.try_replay")

    def traced_try_replay(self, now, app_id, request):
        tracer.count("replay.attempts")
        passes = self._hv.scheduler_passes
        enter(replay_lid, replay_fid)
        try:
            hit = try_replay(self, now, app_id, request)
        finally:
            leave()
        if hit:
            tracer.count("replay.hits")
            tracer.count(
                "replay.credited_passes", self._hv.scheduler_passes - passes
            )
        tracer.replay_caches[id(self)] = self
        return hit

    ReplayCache.try_replay = functools.update_wrapper(
        traced_try_replay, try_replay
    )

    # -- hypervisor -------------------------------------------------------
    def registered(args, result):
        hv = args[0]
        if is_live(hv.engine):
            stats = _HypervisorStats()
            tracer.hypervisors[hv] = stats
            tracer.hv_stats.append(stats)
        else:
            tracer.count("replay.scratch_hypervisors")

    def read_stats(args, result):
        hv = args[0]
        stats = tracer.hypervisors.get(hv)
        if stats is not None:
            stats.read(hv)

    _patch(tracer, Hypervisor, "__init__", "hypervisor", after=registered)
    _patch(tracer, Hypervisor, "submit", "hypervisor")
    _patch(tracer, Hypervisor, "run", "hypervisor")
    _patch(tracer, Hypervisor, "results", "hypervisor", after=read_stats)

    add_listener = Hypervisor.add_retire_listener

    def traced_add_listener(self, callback):
        module = getattr(callback, "__module__", None) or "?"
        lid = tracer.module_layer(module)
        fid = tracer.func_id(callback.__qualname__)

        def listener(app, now):
            enter(lid, fid)
            try:
                callback(app, now)
            finally:
                leave()
        return add_listener(self, listener)

    Hypervisor.add_retire_listener = functools.update_wrapper(
        traced_add_listener, add_listener
    )

    pending_add = PendingQueue.add

    def traced_pending_add(self, app):
        pending_add(self, app)
        depth = len(self)
        if depth > tracer.counts.get("hypervisor.pending_peak", 0):
            tracer.counts["hypervisor.pending_peak"] = depth

    PendingQueue.add = functools.update_wrapper(
        traced_pending_add, pending_add
    )

    # -- schedulers (every registry policy, repro.core included) ----------
    classes = set()
    for factory in scheduler_factories().values():
        for cls in type(factory()).__mro__:
            if isinstance(cls, type) and issubclass(cls, SchedulerPolicy):
                classes.add(cls)
    useful = lambda args, result: (  # noqa: E731
        tracer.count("schedulers.decide.useful") if result is not None
        else None
    )
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        for attr in ("decide", "notify_arrival", "notify_completion",
                     "notify_tick"):
            fn = cls.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            if attr == "decide":
                _patch(tracer, cls, attr, "schedulers",
                       count="schedulers.decide.calls", after=useful)
            else:
                _patch(tracer, cls, attr, "schedulers")

    # -- overlay: the configuration port ----------------------------------
    port_request = ReconfigurationPort.request
    overlay_lid = tracer.layer_id("overlay")
    request_fid = tracer.func_id("ReconfigurationPort.request")

    def traced_request(self, slot, duration_ms, on_done):
        enter(overlay_lid, request_fid)
        try:
            return port_request(
                self, slot, duration_ms, traced_callback(on_done, False)
            )
        finally:
            leave()

    ReconfigurationPort.request = functools.update_wrapper(
        traced_request, port_request
    )

    # -- admission --------------------------------------------------------
    def admitted(args, result):
        controller = args[0]
        if controller._hv is None or not is_live(controller._hv.engine):
            return
        tracer.count("admission.calls")
        if result:
            tracer.count("admission.admitted")
        tracer.controllers[id(controller)] = controller

    _patch(tracer, AdmissionController, "admit", "admission", after=admitted)
    _patch(tracer, AdmissionController, "on_pass", "admission")
    _patch(tracer, AdmissionController, "filter_candidates", "admission")
    _patch(tracer, Watchdog, "on_pass", "admission.watchdog")

    # -- service ----------------------------------------------------------
    _patch(tracer, ServiceLoop, "__init__", "service.loop")
    _patch(tracer, ServiceLoop, "run", "service.loop",
           after=lambda args, result: read_stats((args[0].hv,), result))
    for attr in ("observe_arrival", "observe_completion", "observe_shed",
                 "observe_dropped", "observe_rejections",
                 "note_engine_events", "note_pending_depth"):
        _patch(tracer, WindowedMetrics, attr, "service.windows")
    for attr in ("add", "add_bucket_counts", "extend", "index_of",
                 "quantile", "percentile", "merge", "copy", "to_dict",
                 "from_dict"):
        _patch(tracer, QuantileSketch, attr, "service.sketch")

    # -- cluster ----------------------------------------------------------
    placed = lambda args, result: (  # noqa: E731
        tracer.count("cluster.placements") if result is not None else None
    )
    _patch(tracer, cluster_module.Cluster, "submit", "cluster.place",
           after=placed)
    _patch(tracer, cluster_module.Cluster, "submit_sequence",
           "cluster.place")
    _patch(tracer, cluster_module.Cluster, "run", "cluster.board")
    _patch(tracer, shard, "simulate_board", "cluster.board")
    for attr in ("__init__", "to_dict", "snapshot_digest"):
        _patch(tracer, cluster_module.ClusterReport, attr, "cluster.merge")

    # -- experiments ------------------------------------------------------
    for attr in ("prewarm", "results", "combined"):
        _patch(tracer, runner.RunCache, attr, "experiments")
    run_sequence = _span(
        tracer, runner.run_sequence, "experiments",
        count="experiments.run_sequence", outermost=False,
    )
    runner.run_sequence = run_sequence
    parallel.run_sequence = run_sequence

    # -- workload ---------------------------------------------------------
    arrivals_lid = tracer.layer_id("workload.arrivals")
    next_fid = tracer.func_id("ArrivalProcess.events.__next__")
    events = ArrivalProcess.events

    class _TracedStream:
        __slots__ = ("_stream",)

        def __init__(self, stream) -> None:
            self._stream = stream

        def __iter__(self):
            return self

        def __next__(self):
            enter(arrivals_lid, next_fid)
            try:
                return next(self._stream)
            finally:
                leave()

    def traced_events(self, skip=0):
        return _TracedStream(events(self, skip))

    ArrivalProcess.events = functools.update_wrapper(traced_events, events)
    _patch(tracer, EventSpec, "to_request", "workload.arrivals")
    _patch(tracer, EventSequence, "to_requests", "workload.arrivals")


# ----------------------------------------------------------------------
# Reading a repetition
# ----------------------------------------------------------------------
def traced_counters(record: dict) -> Dict[str, int]:
    """Counts the spans saw, keyed like :func:`program_counters`."""
    counts, fires = record["counts"], record["fires"]
    attempts = counts.get("replay.attempts", 0)
    hits = counts.get("replay.hits", 0)
    return {
        "engine_events": sum(fires.values())
        + counts.get("engine.credited", 0),
        "scheduler_passes": fires.get("Hypervisor._run_pass", 0)
        + counts.get("replay.credited_passes", 0),
        "replay_hits": hits,
        "replay_misses": attempts - hits,
        "replay_recordings": counts.get("replay.scratch_hypervisors", 0),
        "admission_submitted": counts.get("admission.calls", 0),
        "admission_admitted": counts.get("admission.admitted", 0),
        "simulations": counts.get("experiments.run_sequence", 0),
        "placements": counts.get("cluster.placements", 0),
        "windows_closed": fires.get("ServiceLoop._on_window_close", 0),
    }


def program_counters(record: dict) -> Dict[str, int]:
    """The program's own counters, read off the objects the run built."""
    stats = record["hv_stats"]
    caches = record["replay_caches"]
    controllers = record["controllers"]
    return {
        "engine_events": sum(s.processed for s in stats),
        "scheduler_passes": sum(s.passes for s in stats),
        "replay_hits": sum(c.hits for c in caches),
        "replay_misses": sum(c.misses for c in caches),
        "replay_recordings": sum(c.recordings for c in caches),
        "admission_submitted": sum(c.stats.submitted for c in controllers),
        "admission_admitted": sum(c.stats.admitted for c in controllers),
    }


def layer_metrics(record: dict, untraced_cpu_s: float) -> Dict[str, tuple]:
    """Every per-layer metric of one traced repetition: name -> (value,
    unit). Layers a workload does not run report 0."""
    self_s = record["self_s"]
    counts, fires = record["counts"], record["fires"]
    stats = record["hv_stats"]
    controllers = record["controllers"]
    fire_layers = record["fire_layers"]
    attempts = counts.get("replay.attempts", 0)
    decides = counts.get("schedulers.decide.calls", 0)
    admits = counts.get("admission.calls", 0)
    span_ms = sum(s.span_ms for s in stats)
    slot_ms = sum(s.slot_ms for s in stats)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = {
        "sim.engine.events": (sum(fires.values()), "count"),
        "sim.trace.records": (counts.get("trace.records", 0), "count"),
        "sim.replay.attempts": (attempts, "count"),
        "sim.replay.hit_ratio": (
            ratio(counts.get("replay.hits", 0), attempts), "ratio"
        ),
        "sim.replay.recordings": (
            counts.get("replay.scratch_hypervisors", 0), "count"
        ),
        "hypervisor.callbacks": (
            sum(n for f, n in fires.items() if fire_layers[f] == "hypervisor"),
            "count",
        ),
        "hypervisor.passes": (sum(s.passes for s in stats), "count"),
        "hypervisor.pending_peak": (
            counts.get("hypervisor.pending_peak", 0), "count"
        ),
        "schedulers.decide.calls": (decides, "count"),
        "schedulers.decide.useful_ratio": (
            ratio(counts.get("schedulers.decide.useful", 0), decides), "ratio"
        ),
        "schedulers.preemptions": (
            sum(s.preemptions for s in stats), "count"
        ),
        "overlay.reconfigs": (sum(s.reconfigs for s in stats), "count"),
        "overlay.port_busy_frac": (
            ratio(sum(s.port_busy_ms for s in stats), span_ms), "fraction"
        ),
        "overlay.slot_busy_frac": (
            ratio(sum(s.run_busy_ms for s in stats), slot_ms), "fraction"
        ),
        "admission.admit_ratio": (
            ratio(counts.get("admission.admitted", 0), admits), "ratio"
        ),
        "admission.shed": (sum(c.stats.shed for c in controllers), "count"),
        "service.windows_closed": (
            fires.get("ServiceLoop._on_window_close", 0), "count"
        ),
        "cluster.placements": (counts.get("cluster.placements", 0), "count"),
        "experiments.simulations": (
            counts.get("experiments.run_sequence", 0), "count"
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    attributed = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    metrics["trace.unattributed_s"] = (record["total_s"] - attributed, "s")
    metrics["trace.overhead_x"] = (
        ratio(record["cpu_s"], untraced_cpu_s), "x"
    )
    return metrics
