"""The two in-process workloads: offline-campaign and online-finetune.

Both build the service through its public API (``HighRPM.fit_initial``,
``PowerMonitorService``, ``register_node``, ``calibrate_node``) and drive it
only through ``FleetMonitor`` (offline) or chunked ``observe_run`` calls
(online). A sink registered on the service hands every restored chunk and
run boundary to :class:`~perfbench.checks.RunChecker` after the timed
section. These workloads have no HTTP surface: their scrape figures time
renders of the service's registry, the exporter's own work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import harness
from .checks import RunChecker, Truth, check_mode_counters, runs_total_from_snapshot

#: Training mix, the same spread ``repro monitor`` trains on.
TRAIN_WORKLOADS = ("spec_gcc", "spec_mcf", "parsec_ferret", "hpcc_hpl",
                   "hpcc_stream", "parsec_radix")
TRAIN_SECONDS = 120
#: The model, its training campaign and the workload catalogue are the
#: same in every run: a model trained from the benchmark seed would move
#: the component MAPE by a third between seeds (one fitted SRR per run),
#: more than any bound. The seed drives the monitored inputs instead.
MODEL_SEED = 2023
#: Node ``i`` of seed ``s`` simulates and samples with ``s * NODE_STRIDE + i``,
#: so two seeds share no node realisation.
NODE_STRIDE = 1000

#: Monitored mix: compute-bound, memory-bound and mixed catalogue
#: workloads, dealt round-robin over the nodes.
CAMPAIGN_WORKLOADS = ("hpcc_hpl", "hpcc_stream", "parsec_ferret",
                      "hpcc_dgemm", "hpcc_randomaccess", "spec_gcc")

#: The paper's IM interval.
INTERVAL_S = 10

#: Renders of the service's registry timed between the rounds: the p90 of
#: 400 rests on 40 tail samples. An exporter thread scraping during the
#: rounds instead timed the monitor thread's hold on the interpreter lock:
#: its p95 sat on the edge of a 5 ms switch-interval wait and moved by 0.4
#: between runs; one burst after the rounds caught a single host phase.
SCRAPES = 400


@dataclass(frozen=True)
class Size:
    nodes: int
    run_seconds: int
    chunk_size: int
    calib_seconds: int = 600


#: Full sizes are what BENCHMARK.json measures; small ones keep the
#: benchmark's own tests fast with fewer nodes at the same run lengths.
SIZES = {
    "offline-campaign": {"full": Size(64, 3600, 256), "small": Size(8, 3600, 256, 300)},
    "online-finetune": {"full": Size(6, 180, 60), "small": Size(2, 180, 60)},
}


class ChunkLog:
    """Sink that keeps references to every restored chunk (cheap: the
    service's own log holds the same arrays) for the after-run checks."""

    def __init__(self) -> None:
        self.events: list = []

    def write(self, chunk) -> None:
        self.events.append((chunk.node_id, chunk.start, chunk.stop, chunk.p_node,
                            chunk.p_cpu, chunk.p_mem, chunk.p_gpu, chunk.provenance))

    def end_run(self, node_id: str, workload: str, mode: str) -> None:
        self.events.append((node_id, mode))

    def close(self) -> None:
        """Nothing to release."""

    def replay(self, checker: RunChecker) -> None:
        """Feed every chunk and run boundary to the checker, in order."""
        for event in self.events:
            if len(event) == 2:
                checker.end_run(*event)
            else:
                node_id, start, stop, p_node, p_cpu, p_mem, p_gpu, prov = event
                checker.chunk(node_id, start, stop, p_node, p_cpu, p_mem,
                              p_gpu if p_gpu is not None else [], prov)


class Renders:
    """Timed renders of the service's registry, spread over the run.

    Between rounds the workload tops the count up to its share of
    :data:`SCRAPES` for the time elapsed, so the renders sample the whole
    timed section rather than one host phase; ``windows`` keeps each
    burst's interval for the traced ledger.
    """

    def __init__(self, scrape, recorder=None) -> None:
        self._scrape = scrape
        self._recorder = recorder
        self.latencies: "list[float]" = []
        self.windows: "list[tuple[float, float]]" = []
        self.size = 0

    def top_up(self, target: int) -> None:
        if target <= len(self.latencies):
            return
        if self._recorder is not None:
            self._recorder.install()
        begin = time.monotonic()
        while len(self.latencies) < target:
            start = time.monotonic()
            self.size = len(self._scrape())
            self.latencies.append(time.monotonic() - start)
        self.windows.append((begin, time.monotonic()))
        if self._recorder is not None:
            self._recorder.uninstall()


def _train(spec, train):
    from repro.core import HighRPM, HighRPMConfig

    model = HighRPM(HighRPMConfig(miss_interval=INTERVAL_S, seed=MODEL_SEED),
                    p_bottom=spec.min_node_power_w, p_upper=spec.max_node_power_w)
    return model.fit_initial(train)


class InProcessWorkload:
    """Shared skeleton: inputs, repeated setup, timed rounds, checks."""

    name = ""
    online = False
    #: Simulate a new run of every node for each round (more workload
    #: realisations per run, so the MAPE figures average over them).
    fresh_inputs = False

    def __init__(self, seed: int, size: str) -> None:
        from repro.hardware import NodeSimulator
        from repro.hardware.platform import get_platform
        from repro.workloads.catalog import default_catalog

        self.seed = seed
        self.size = SIZES[self.name][size]
        self.spec = get_platform("arm")
        self.catalog = default_catalog(MODEL_SEED)
        train_sim = NodeSimulator(self.spec, seed=MODEL_SEED)
        self.train = [train_sim.run(self.catalog.get(w), duration_s=TRAIN_SECONDS)
                      for w in TRAIN_WORKLOADS]
        self.node_ids = [f"node{i}" for i in range(self.size.nodes)]
        self.truths: "dict[str, list[Truth]]" = {n: [] for n in self.node_ids}
        self.bundles = {}
        self.simulate(run_id=0)
        self.service = None
        self.sink = None

    def simulate(self, run_id: int) -> None:
        """The inputs of one round: run ``run_id`` of every node."""
        from repro.hardware import NodeSimulator

        for i, node_id in enumerate(self.node_ids):
            bundle = NodeSimulator(self.spec, seed=self.node_seed(i)).run(
                self.catalog.get(CAMPAIGN_WORKLOADS[i % len(CAMPAIGN_WORKLOADS)]),
                duration_s=self.size.run_seconds, run_id=run_id,
            )
            self.bundles[node_id] = bundle
            self.truths[node_id].append(
                Truth(bundle.node.values, bundle.cpu.values, bundle.mem.values))

    def node_seed(self, index: int) -> int:
        return self.seed * NODE_STRIDE + index

    # --------------------------------------------------------- overrides
    def sensor_for(self, index: int):
        from repro.sensors import IPMISensor

        return IPMISensor(self.spec, interval_s=INTERVAL_S, seed=self.node_seed(index))

    def calibrate(self, service) -> None:
        """Register calibrations (setup); none by default."""

    def run_round(self) -> int:
        raise NotImplementedError

    def healthy(self) -> "set[str]":
        return set(self.node_ids)

    # ------------------------------------------------------------ phases
    def setup(self) -> float:
        """Train, build the service, register nodes, calibrate; timed."""
        from repro.monitor import PowerMonitorService
        from repro.obs import MetricsRegistry

        start = time.perf_counter()
        model = _train(self.spec, self.train)
        sink = ChunkLog()
        service = PowerMonitorService(model, self.spec, registry=MetricsRegistry(),
                                      sinks=[sink])
        for i, node_id in enumerate(self.node_ids):
            service.register_node(node_id, sensor=self.sensor_for(i))
        self.calibrate(service)
        elapsed = time.perf_counter() - start
        self.service, self.sink = service, sink
        return elapsed

    def scrape(self) -> str:
        from repro.obs import render_prometheus

        return render_prometheus(self.service.registry.snapshot())

    def run(self, seconds: float, trace: bool) -> None:
        setups = [self.setup() for _ in range(1 if trace else harness.SETUP_REPEATS)]
        self.run_round()  # warm-up: lazy compiles and caches fill untimed
        recorder = None
        if trace:
            from .tracing import SpanRecorder

            recorder = SpanRecorder()
        renders = Renders(self.scrape, recorder)
        rounds = []  # (wall_s, cpu_s, samples, traced, t_start, t_end, events)
        rss_mb = None
        elapsed = 0.0
        while elapsed < seconds or len(rounds) < (4 if trace else 2):
            if self.fresh_inputs:
                self.simulate(run_id=len(rounds) + 1)
            traced = trace and len(rounds) % 2 == 1
            if traced:
                recorder.install()
            first_event = len(self.sink.events)
            t0, c0 = time.monotonic(), time.process_time()
            samples = self.run_round()
            t1, c1 = time.monotonic(), time.process_time()
            if traced:
                recorder.uninstall()
            rounds.append((t1 - t0, c1 - c0, samples, traced, t0, t1, first_event))
            elapsed += t1 - t0
            if rss_mb is None:
                rss_mb = harness.self_peak_rss_mb()
            renders.top_up(int(SCRAPES * min(elapsed / seconds, 1.0)))
        renders.top_up(SCRAPES)
        self.report(setups, rounds, rss_mb, renders, recorder)

    # ------------------------------------------------------------ report
    def report(self, setups, rounds, rss_mb, renders, recorder) -> None:
        checker = RunChecker(
            self.truths,
            {n: "dynamic" if self.online else "static" for n in self.node_ids},
            {"cpu": (self.spec.min_node_power_w, self.spec.max_node_power_w)},
            self.healthy(),
        )
        self.sink.replay(checker)
        n_rounds = len(rounds) + 1  # the warm-up round is checked too
        checker.finish({n: n_rounds for n in self.node_ids})
        check_mode_counters(checker, runs_total_from_snapshot(
            self.service.registry.snapshot()))
        for message in checker.failures:
            harness.log(f"CHECK FAILED: {message}")
        lat_ms = [1e3 * x for x in renders.latencies]
        harness.log(
            f"{self.name}: {len(rounds)} timed rounds, setups {setups}, "
            f"{len(lat_ms)} renders of {renders.size} B (p50/p90 "
            f"{harness.percentile(lat_ms, 50):.2f}/{harness.percentile(lat_ms, 90):.2f} ms), "
            f"per-node MAPE "
            + " ".join(f"{n}={checker.node_mape(n):.2f}" for n in self.node_ids[:8])
        )
        plain = [r for r in rounds if not r[3]]
        sps = [r[2] / r[0] for r in plain]
        harness.log("rounds samples/s: " + " ".join(f"{x:.6g}" for x in sps))
        if recorder is None:
            metrics = dict((
                harness.metric("setup_s", harness.median(setups)),
                harness.metric("samples_per_s",
                               sum(r[2] for r in plain) / sum(r[0] for r in plain)),
                harness.metric("cpu_us_per_sample",
                               1e6 * sum(r[1] for r in plain) / sum(r[2] for r in plain)),
                harness.metric("peak_rss_mb", rss_mb),
                harness.metric("mape_node_pct", checker.mape("node")),
                harness.metric("mape_cpu_pct", checker.mape("cpu")),
                harness.metric("mape_mem_pct", checker.mape("mem")),
                harness.metric("scrape_p90_ms", harness.percentile(lat_ms, 90)),
            ))
        else:
            metrics = self.layer_metrics(rounds, renders, recorder)
        harness.emit(checker.n_failures == 0, checker.attempted, 0, metrics)

    def layer_metrics(self, rounds, renders, recorder) -> dict:
        from .tracing import SPAN_METRICS, format_ledger, layer_result, ledger

        traced = [r for r in rounds if r[3]]
        plain = [r for r in rounds if not r[3]]
        plain_sps = sum(r[2] for r in plain) / sum(r[0] for r in plain)
        totals = {m: 0.0 for m, _, _, _ in SPAN_METRICS}
        layer_self: "dict[str, float]" = {}
        unattributed = 0.0
        chunks = runs = 0
        # The registry renders between the rounds are traced too: they are
        # the only obs spans of these workloads.
        for window in renders.windows:
            for k, v in ledger(recorder.records, *window)[0].items():
                totals[k] += v
        for i, r in enumerate(rounds):
            if not r[3]:
                continue
            values, layers, unattr = ledger(recorder.records, r[4], r[5])
            for k, v in values.items():
                totals[k] += v
            for k, v in layers.items():
                layer_self[k] = layer_self.get(k, 0.0) + v
            unattributed += unattr
            end_event = rounds[i + 1][6] if i + 1 < len(rounds) else len(self.sink.events)
            events = self.sink.events[r[6]:end_event]
            runs += sum(1 for e in events if len(e) == 2)
            chunks += sum(1 for e in events if len(e) != 2)
        traced_sps = sum(r[2] for r in traced) / sum(r[0] for r in traced)
        window = sum(r[0] for r in traced)
        harness.log(format_ledger(layer_self, unattributed, window, 1))
        counts = {
            "monitor.runs": runs,
            "monitor.chunks": chunks,
            "obs.spans": sum(s.count for s in self.service.tracer.stats().values()),
            "obs.metrics_bytes": renders.size,
            "serve.collector_busy_s": 0.0,
            "serve.events": 0,
            "serve.stream_mb": 0.0,
            "ledger.unattributed_s": unattributed,
            "ledger.tracing_overhead_pct": 100.0 * (1.0 - traced_sps / plain_sps),
        }
        return layer_result(totals, counts)


class OfflineCampaign(InProcessWorkload):
    """Historical-log analysis: tens of hour-long runs, StaticTRR + SRR
    through the batched fleet front-end; a minority of sensors carry a
    known gain or lag error and a registered calibration."""

    name = "offline-campaign"
    online = False

    #: node index % 8: 3 -> gain/offset error, 7 -> clock-lag error.
    GAIN_SLOT, LAG_SLOT = 3, 7

    def faults_for(self, index: int):
        from repro.faults.models import ClockJitter, GainDrift

        if index % 8 == self.GAIN_SLOT:
            return (GainDrift(gain_start=1.12, bias_start_w=9.0),)
        if index % 8 == self.LAG_SLOT:
            return (ClockJitter(1, drift_s=3),)
        return None

    def sensor_for(self, index: int):
        from repro.faults.inject import FaultySensor

        sensor = super().sensor_for(index)
        faults = self.faults_for(index)
        if faults is None:
            return sensor
        return FaultySensor(sensor, faults=faults, seed=self.node_seed(index))

    def calibrated(self) -> "list[int]":
        return [i for i in range(self.size.nodes) if self.faults_for(i) is not None]

    def calibration_inputs(self):
        """Per calibrated node: a second run and its dense reference."""
        from repro.hardware import NodeSimulator
        from repro.sensors.direct import DirectPowerSensor

        if not hasattr(self, "_calib_inputs"):
            self._calib_inputs = {}
            for i in self.calibrated():
                bundle = NodeSimulator(self.spec, seed=self.node_seed(i)).run(
                    self.catalog.get(CAMPAIGN_WORKLOADS[i % len(CAMPAIGN_WORKLOADS)]),
                    duration_s=self.size.calib_seconds, run_id=1,
                )
                reference = DirectPowerSensor(self.spec, seed=self.node_seed(i)) \
                    .measure_node(bundle).values
                self._calib_inputs[i] = (bundle, reference)
        return self._calib_inputs

    def setup(self) -> float:
        self.calibration_inputs()  # input simulation stays outside the timer
        return super().setup()

    def calibrate(self, service) -> None:
        for i, (bundle, reference) in self.calibration_inputs().items():
            service.calibrate_node(f"node{i}", bundle, reference, max_lag_s=10)

    def run_round(self) -> int:
        from repro.monitor import FleetMonitor

        fleet = FleetMonitor(self.service, chunk_size=self.size.chunk_size)
        results = fleet.observe_all(self.bundles, online=False)
        return sum(len(r) for r in results.values())


class OnlineFinetune(InProcessWorkload):
    """Live monitoring: DynamicTRR, one chunked ``observe_run`` at a time.
    node1's IM feed drops out mid-run, so the anchorless forecast and the
    boosted re-sync fine-tune both run. Each round observes a new run of
    every node: six short runs per round would leave the MAPE figures to
    six realisations, which moved them by a fifth between seeds."""

    name = "online-finetune"
    online = True
    fresh_inputs = True
    OUTAGE_NODE = 1

    def sensor_for(self, index: int):
        from repro.faults.inject import FaultySensor
        from repro.faults.models import OutageWindow

        sensor = super().sensor_for(index)
        if index != self.OUTAGE_NODE:
            return sensor
        start = self.size.run_seconds // 3
        return FaultySensor(sensor, faults=(OutageWindow(start, start),),
                            seed=self.node_seed(index))

    def healthy(self) -> "set[str]":
        return set(self.node_ids) - {f"node{self.OUTAGE_NODE}"}

    def run_round(self) -> int:
        samples = 0
        for node_id in self.node_ids:
            result = self.service.observe_run(
                node_id, self.bundles[node_id], online=True,
                chunk_size=self.size.chunk_size,
            )
            samples += len(result)
        return samples


WORKLOADS = {w.name: w for w in (OfflineCampaign, OnlineFinetune)}
