"""The benchmark's own tests: small end-to-end runs and its checks.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402

harness.pin_environment()
harness.import_program()

from perfbench import fleet  # noqa: E402
from perfbench.checks import RunChecker, Truth  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.tracing import LAYER_METRICS, SpanRecorder, ledger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, *extra: str, trace: int = 0, seconds: float = 2.0):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
         "--size", "small", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_end_to_end(workload):
    result, stderr = bench(workload)
    assert result["correct"], stderr[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result, stderr = bench(workload, trace=1)
    assert result["correct"], stderr[-3000:]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["monitor.runs"] > 0 and values["monitor.chunks"] > 0
    assert "ledger over" in stderr
    if workload == "online-finetune":
        assert values["ml.lstm_partial_fit_calls"] > 0
        assert values["perf.lstm_forecast_calls"] > 0
    else:
        assert values["interp.spline_fit_calls"] > 0
        assert values["core.static_fit_calls"] > 0
    if workload == "daemon-fleet":
        assert values["serve.events"] > 0 and values["serve.stream_mb"] > 0
        assert values["obs.merge_s"] > 0 and values["serve.metrics_text_s"] > 0


def test_model_only_daemon_run_is_a_mode_mismatch():
    """40 s runs keep 3 IM readings, below the static floor of 4: every
    node falls back to model-only restoration, which the what-ran check
    must report instead of pricing it as static restoration."""
    result, stderr = bench("daemon-fleet", "--daemon-run-seconds", "40")
    assert not result["correct"]
    assert "mode mismatch, declared 'static', ran 'model_only'" in stderr


def test_stream_equals_in_process_observe_run_bitwise():
    """A small daemon's /stream records for its nodes equal a fresh
    in-process observe_run of the same node, bit for bit."""
    from repro.hardware import NodeSimulator
    from repro.hardware.platform import get_platform
    from repro.monitor import PowerMonitorService
    from repro.sensors import IPMISensor
    from repro.serve import ServeConfig
    from repro.serve.daemon import train_model
    from repro.workloads.catalog import default_catalog

    seed, nodes, seconds, chunk = 17, 4, 200, 64
    argv = [sys.executable, "-m", "repro", "--seed", str(seed), "serve",
            "--nodes", str(nodes), "--shards", "2", "--processes", "--offline",
            "--port", "0", "--runs", "1", "--seconds", str(seconds),
            "--chunk-size", str(chunk), "--workload", fleet.CPU_WORKLOAD]
    daemon = fleet.Daemon(argv, "bitwise")
    try:
        stream = fleet.StreamReader(daemon.wait_port(), daemon.usage, nodes)
        daemon.wait_exit()
        stream.join()
    finally:
        if daemon.returncode is None:
            daemon.kill()
    assert daemon.returncode == 0
    streamed: "dict[str, list[dict]]" = {}
    for rec in stream.records():
        if rec["event"] == "chunk":
            streamed.setdefault(rec["node_id"], []).append(rec)

    config = ServeConfig(nodes=nodes, seed=seed, run_seconds=seconds,
                         workload=fleet.CPU_WORKLOAD, online=False)
    spec = get_platform(config.platform)
    service = PowerMonitorService(train_model(config), spec)
    workload = default_catalog(seed).get(fleet.CPU_WORKLOAD)
    for i in range(nodes):
        node_id = f"node{i}"
        service.register_node(node_id, sensor=IPMISensor(
            spec, interval_s=config.interval_s, seed=seed + i))
        bundle = NodeSimulator(spec, seed=seed + i).run(workload, duration_s=seconds)
        result = service.observe_run(node_id, bundle, online=False, chunk_size=chunk)
        records = streamed[node_id]
        for channel in ("p_node", "p_cpu", "p_mem", "provenance"):
            got = np.concatenate([np.asarray(r[channel]) for r in records])
            assert np.array_equal(got, getattr(result, channel)), (node_id, channel)
        assert [r["mode"] for r in records] == ["static"] * len(records)


def _checker(**overrides):
    n = 20
    truth = {"n0": [Truth(np.full(n, 100.0), np.full(n, 50.0), np.full(n, 25.0))]}
    args = dict(expected_modes={"n0": "static"}, clamps={"cpu": (40.0, 200.0)},
                healthy={"n0"})
    args.update(overrides)
    return RunChecker(truth, **args)


def _feed(checker, spans, p_node=100.0, split=(50.0, 25.0), mode="static"):
    for start, stop in spans:
        k = stop - start
        prov = np.ones(k, dtype=np.uint8)
        prov[::5] = 0
        checker.chunk("n0", start, stop, np.full(k, p_node), np.full(k, split[0]),
                      np.full(k, split[1]), [], prov)
    checker.end_run("n0", mode)


def test_checker_accepts_a_tiled_run():
    checker = _checker()
    _feed(checker, [(0, 8), (8, 20)])
    checker.finish({"n0": 1})
    assert checker.failures == [] and checker.samples == 20


@pytest.mark.parametrize("spans", [[(0, 8), (9, 20)], [(0, 8), (4, 20)], [(0, 8)]])
def test_checker_rejects_gaps_overlaps_and_short_runs(spans):
    checker = _checker()
    _feed(checker, spans)
    checker.finish({"n0": 1})
    assert checker.failures


def test_checker_rejects_clamp_split_and_mode_violations():
    checker = _checker()
    _feed(checker, [(0, 20)], p_node=250.0, mode="model_only")
    checker.finish({"n0": 1})
    text = " ".join(checker.failures)
    assert "clamps" in text and "mode mismatch" in text

    checker = _checker()
    _feed(checker, [(0, 20)], split=(50.0, 25.0))
    _feed(checker, [(0, 10), (10, 20)], split=(60.0, 25.0))
    checker.finish({"n0": 2})
    assert any("one constant per class" in f for f in checker.failures)


def test_ledger_self_time_subtracts_children():
    recorder = SpanRecorder()
    recorder.records = [
        # sid, parent, name, start, end, node, run, thread
        (1, None, "monitor.observe_run", 0.0, 10.0, "n0", 1, 1),
        (2, 1, "stream.pipeline", 1.0, 9.0, "n0", 1, 1),
        (3, 2, "core.srr", 2.0, 5.0, "n0", 1, 1),
        (4, 2, "core.srr", 5.0, 6.0, "n0", 1, 1),
    ]
    values, layers, unattributed = ledger(recorder.records, 0.0, 12.0)
    assert values["monitor.observe_run_self_s"] == pytest.approx(2.0)
    assert values["stream.pipeline_self_s"] == pytest.approx(4.0)
    assert values["core.srr_s"] == pytest.approx(4.0)
    assert layers == pytest.approx({"monitor": 2.0, "stream": 4.0, "core": 4.0})
    assert unattributed == pytest.approx(2.0)
    assert {name for name, _ in LAYER_METRICS} >= set(values)
