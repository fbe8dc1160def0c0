"""Traced runs: span wrappers around each layer's public functions.

:meth:`SpanRecorder.install` replaces the functions named in :data:`TARGETS` with
wrappers that record one span per call — name, start, end, parent span,
node id and run id — into an in-memory :class:`SpanRecorder`. The
wrappers call the original and return its result unchanged, so a traced
run restores the same bits as an untraced one; only its timing differs,
and that difference is the tracing overhead the ledger reports.

Spans stay in memory and are written out once, when the traced process
ends (:meth:`SpanRecorder.dump`); forked daemon shards dump their own
file. :func:`ledger` turns the spans of a timed window into the per-layer
metrics of :data:`LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (module, attribute path, span name). A span name's prefix is its layer.
TARGETS = (
    ("repro.sensors.ipmi", "IPMISensor.sample", "sensors.sample"),
    ("repro.faults.inject", "FaultySensor.sample", "sensors.sample"),
    ("repro.calib.transform", "CompensationTransform.apply", "calib.apply"),
    ("repro.interp.spline", "CubicSplineInterpolator.fit", "interp.spline_fit"),
    ("repro.ml.tree", "DecisionTreeRegressor.fit", "ml.tree_fit"),
    ("repro.ml.recurrent", "LSTMRegressor.partial_fit", "ml.lstm_partial_fit"),
    ("repro.perf.flat_lstm", "CompiledLSTM.forecast", "perf.lstm_forecast"),
    ("repro.perf.batch", "TreeStack.predict", "perf.treestack"),
    ("repro.perf.flat_mlp", "CompiledMLP.predict", "perf.mlp"),
    ("repro.perf.compile", "compile_tree", "perf.compile"),
    ("repro.core.highrpm", "HighRPM.offline_stream", "core.static_fit"),
    ("repro.core.static_trr", "StaticTRRStream.restore_chunk", "core.static_restore"),
    ("repro.core.static_trr", "StaticTRRStream.finish", "core.static_restore"),
    ("repro.core.highrpm", "HighRPM.online_session", "core.session_open"),
    ("repro.core.dynamic_trr", "OnlineTRRSession.run_chunk", "core.online_chunk"),
    ("repro.core.srr", "SRR.predict", "core.srr"),
    ("repro.core.srr", "SRR.predict_batched", "core.srr"),
    ("repro.gpu.srr", "GPUSRR.predict", "core.srr"),
    ("repro.gpu.srr", "GPUSRR.predict_batched", "core.srr"),
    ("repro.stream.stages", "StreamPipeline.run", "stream.pipeline"),
    ("repro.stream.stages", "StreamPipeline.apply", "stream.pipeline"),
    ("repro.monitor.fleet", "FleetMonitor.submit", "monitor.submit"),
    ("repro.monitor.fleet", "FleetMonitor.tick", "monitor.tick"),
    ("repro.monitor.service", "PowerMonitorService.observe_run", "monitor.observe_run"),
    ("repro.obs.metrics", "MetricsRegistry.snapshot", "obs.snapshot"),
    ("repro.obs.merge", "merge_snapshots", "obs.merge"),
    ("repro.obs.exposition", "render_prometheus", "obs.render"),
    ("repro.serve.daemon", "FleetDaemon.metrics_text", "serve.metrics_text"),
    ("repro.serve.shard", "QueueSink.write", "serve.sink_write"),
    ("repro.serve.shard", "QueueSink.end_run", "serve.sink_write"),
    ("repro.serve.merge", "StreamHub.publish", "serve.publish"),
)

#: Spans whose first positional argument after ``self`` is the node id;
#: they open a new run id for that node.
RUN_OPENERS = {"monitor.observe_run", "monitor.submit"}

#: Per-layer metrics from spans: (metric, unit, kind, span name).
#: ``total`` sums the durations of outermost spans of that name (a
#: FaultySensor read wraps an IPMISensor read: counted once), ``calls``
#: counts them, ``self`` sums span time not covered by child spans.
SPAN_METRICS = (
    ("sensors.sample_s", "s", "total", "sensors.sample"),
    ("sensors.sample_calls", "count", "calls", "sensors.sample"),
    ("calib.apply_s", "s", "total", "calib.apply"),
    ("interp.spline_fit_s", "s", "total", "interp.spline_fit"),
    ("interp.spline_fit_calls", "count", "calls", "interp.spline_fit"),
    ("ml.tree_fit_s", "s", "total", "ml.tree_fit"),
    ("ml.lstm_partial_fit_s", "s", "total", "ml.lstm_partial_fit"),
    ("ml.lstm_partial_fit_calls", "count", "calls", "ml.lstm_partial_fit"),
    ("perf.lstm_forecast_s", "s", "total", "perf.lstm_forecast"),
    ("perf.lstm_forecast_calls", "count", "calls", "perf.lstm_forecast"),
    ("perf.treestack_s", "s", "total", "perf.treestack"),
    ("perf.mlp_s", "s", "total", "perf.mlp"),
    ("perf.compile_s", "s", "total", "perf.compile"),
    ("core.static_fit_s", "s", "total", "core.static_fit"),
    ("core.static_fit_calls", "count", "calls", "core.static_fit"),
    ("core.static_restore_s", "s", "total", "core.static_restore"),
    ("core.session_open_s", "s", "total", "core.session_open"),
    ("core.online_chunk_self_s", "s", "self", "core.online_chunk"),
    ("core.srr_s", "s", "total", "core.srr"),
    ("stream.pipeline_self_s", "s", "self", "stream.pipeline"),
    ("monitor.submit_s", "s", "total", "monitor.submit"),
    ("monitor.tick_self_s", "s", "self", "monitor.tick"),
    ("monitor.observe_run_self_s", "s", "self", "monitor.observe_run"),
    ("obs.snapshot_s", "s", "total", "obs.snapshot"),
    ("obs.merge_s", "s", "total", "obs.merge"),
    ("obs.render_s", "s", "total", "obs.render"),
    ("serve.metrics_text_s", "s", "total", "serve.metrics_text"),
    ("serve.sink_write_s", "s", "total", "serve.sink_write"),
    ("serve.publish_s", "s", "total", "serve.publish"),
)

#: Per-layer metrics the workloads fill from their own counts.
COUNT_METRICS = (
    ("monitor.runs", "count"),
    ("monitor.chunks", "count"),
    ("obs.spans", "count"),
    ("obs.metrics_bytes", "bytes"),
    ("serve.collector_busy_s", "s"),
    ("serve.events", "count"),
    ("serve.stream_mb", "MB"),
    ("ledger.unattributed_s", "s"),
    ("ledger.tracing_overhead_pct", "%"),
)

LAYER_METRICS = tuple((m, u) for m, u, _, _ in SPAN_METRICS) + COUNT_METRICS


def layer_result(span_values: "dict[str, float]", counts: "dict[str, float]") -> dict:
    """The ``metrics`` object of a traced run: every per-layer metric."""
    units = dict(LAYER_METRICS)
    values = {**span_values, **counts}
    return {m: {"value": float(values[m]), "unit": units[m]} for m, _ in LAYER_METRICS}

#: Spans that mark a thread as one that drives the monitor; the ledger's
#: unattributed time is measured on those threads only.
DRIVER_SPANS = ("monitor.observe_run", "monitor.submit", "monitor.tick")

#: Record layout: (span id, parent id, name, start, end, node, run, thread).
SID, PARENT, NAME, START, END, NODE, RUN, THREAD = range(8)


class SpanRecorder:
    """In-memory span log plus a few counters, dumped once at exit."""

    def __init__(self) -> None:
        self.records: "list[tuple]" = []
        self.counters: "dict[str, float]" = {}
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._local = threading.local()
        self._originals: "list[tuple[object, str, object]]" = []

    def reset(self) -> None:
        """Forget everything recorded so far (a forked shard's first act)."""
        self.records = []
        self.counters = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        opens_run = name in RUN_OPENERS
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            sid = next(recorder._ids)
            if stack:
                parent, node, run = stack[-1]
            else:
                parent, node, run = None, None, None
            if opens_run and len(args) > 1:
                node, run = args[1], next(recorder._runs)
            stack.append((sid, node, run))
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                recorder.records.append(
                    (sid, parent, name, start, end, node, run, threading.get_ident())
                )

        return traced

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    # ------------------------------------------------------- installation
    def install(self) -> None:
        """Wrap every target (idempotent per recorder)."""
        if self._originals:
            return
        for module_name, path, span in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                # An inherited method is wrapped on the named class only
                # and removed again on uninstall.
                original = owner.__dict__.get(attr)
                setattr(owner, attr, self.wrap(span, getattr(owner, attr)))
                self._originals.append((owner, attr, original))
            else:
                original = getattr(module, path)
                wrapped = self.wrap(span, original)
                # Importers hold their own reference: rebind every one.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") \
                            and getattr(mod, path, None) is original:
                        setattr(mod, path, wrapped)
                        self._originals.append((mod, path, original))
        self._install_collector_clock()

    def _install_collector_clock(self) -> None:
        """Price the daemon's collector thread in thread CPU time."""
        from repro.serve.merge import EventCollector

        original = EventCollector.__dict__["run"]
        recorder = self

        @functools.wraps(original)
        def run(collector, events):
            start = time.thread_time()
            try:
                return original(collector, events)
            finally:
                recorder.add("serve.collector_busy_s", time.thread_time() - start)

        EventCollector.run = run
        self._originals.append((EventCollector, "run", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._originals = []

    # --------------------------------------------------------------- dump
    def dump(self, path: "str | Path") -> None:
        payload = {"pid": os.getpid(), "records": self.records,
                   "counters": self.counters}
        Path(path).write_text(json.dumps(payload, default=str), encoding="utf-8")


def load_dumps(paths) -> "tuple[list[tuple], dict[str, float]]":
    """Merge span dumps of several processes (thread ids made unique)."""
    records: "list[tuple]" = []
    counters: "dict[str, float]" = {}
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        pid = payload["pid"]
        for rec in payload["records"]:
            rec = list(rec)
            rec[SID] = (pid, rec[SID])
            rec[PARENT] = None if rec[PARENT] is None else (pid, rec[PARENT])
            rec[THREAD] = (pid, rec[THREAD])
            records.append(tuple(rec))
        for key, value in payload["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    return records, counters


def ledger(records, t_start: float, t_end: float) -> "tuple[dict, dict, float]":
    """Per-layer figures for the spans that started in ``[t_start, t_end)``.

    Returns ``(span_metrics, layer_self_s, unattributed_s)``: the values of
    :data:`SPAN_METRICS` over every thread, and — on the threads driving
    the monitor — self time summed per layer prefix and the part of the
    window no span covers.
    """
    inside = [r for r in records if t_start <= r[START] < t_end]
    by_id = {r[SID]: r for r in inside}
    child_time: "dict[object, float]" = {}
    for r in inside:
        if r[PARENT] is not None:
            child_time[r[PARENT]] = child_time.get(r[PARENT], 0.0) + r[END] - r[START]

    def outermost(r) -> bool:
        parent = by_id.get(r[PARENT])
        while parent is not None:
            if parent[NAME] == r[NAME]:
                return False
            parent = by_id.get(parent[PARENT])
        return True

    values = {metric: 0.0 for metric, _, _, _ in SPAN_METRICS}
    kinds = {}
    for metric, _, kind, span in SPAN_METRICS:
        kinds.setdefault(span, []).append((metric, kind))
    drivers = {r[THREAD] for r in inside if r[NAME] in DRIVER_SPANS}
    layer_self: "dict[str, float]" = {}
    for r in inside:
        duration = r[END] - r[START]
        self_s = duration - child_time.get(r[SID], 0.0)
        if r[THREAD] in drivers:
            layer = r[NAME].split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        for metric, kind in kinds.get(r[NAME], ()):
            if kind == "self":
                values[metric] += self_s
            elif outermost(r):
                values[metric] += duration if kind == "total" else 1
    covered: "dict[object, float]" = {}
    for r in inside:
        if r[THREAD] in drivers and r[PARENT] not in by_id:
            end = min(r[END], t_end)
            covered[r[THREAD]] = covered.get(r[THREAD], 0.0) + end - r[START]
    unattributed = sum((t_end - t_start) - covered.get(t, 0.0) for t in drivers)
    return values, layer_self, unattributed


def format_ledger(layer_self: "dict[str, float]", unattributed: float,
                  window_s: float, n_threads: int) -> str:
    """Each layer's self time and share of the timed section (stderr)."""
    total = window_s * max(n_threads, 1)
    lines = [f"ledger over {window_s:.2f} s x {n_threads} driver thread(s)"]
    for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<10} {seconds:9.3f} s  {100 * seconds / total:6.2f} %")
    lines.append(f"  {'unattrib.':<10} {unattributed:9.3f} s  "
                 f"{100 * unattributed / total:6.2f} %")
    return "\n".join(lines)
