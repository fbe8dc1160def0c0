"""Output checks computed apart from the program.

:class:`RunChecker` receives every restored chunk and run boundary the
program emitted — from an in-process sink or from the daemon's ``/stream``
— and holds them against the simulator's ground truth:

* the chunks of each run tile it exactly once, in order;
* restored node power stays within its device class's clamps (kept IM
  readings within the plausibility gate around them);
* component splits are non-negative and sum to the restored node power
  less one constant per device class;
* each run reports the restoration mode the workload declares for its
  node, and every static run kept at least the static reading floor;
* healthy nodes' node MAPE stays below the paper's 15 % PMC-only band;
* the sample total equals nodes x seconds x rounds.

A failed check is recorded as a message; the workload reports
``correct: false`` when any message exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Provenance codes of the program's per-sample flags (measured reading,
#: restored between readings, model-only forecast).
PROV_MEASURED = 0
PROV_CODES = (0, 1, 2)

#: The paper's PMC-only error band: restoration that does worse than a
#: pure counter model on a healthy feed has failed.
HEALTHY_MAPE_LIMIT_PCT = 15.0

#: Fewest surviving IM readings a static (StaticTRR) run may keep: the
#: cubic spline needs four knots.
STATIC_READING_FLOOR = 4

#: The default resilience policy's gate widens the clamps by this share of
#: their span before it drops a reading as implausible.
GATE_MARGIN_FRACTION = 0.25

#: Tolerance for the per-class attribution constant (watts).
SPLIT_ATOL_W = 1e-6

#: Tolerance on the clamp check (watts).
CLAMP_ATOL_W = 1e-9

#: Failure messages kept per run; the count of all failures is exact.
MAX_MESSAGES = 20


@dataclass
class Truth:
    """One node's simulated ground truth for one run (1 Sa/s)."""

    node: np.ndarray
    cpu: np.ndarray
    mem: np.ndarray
    device_class: str = "cpu"

    def __len__(self) -> int:
        return int(self.node.shape[0])


@dataclass
class _ErrorSum:
    abs_pct: float = 0.0
    n: int = 0

    def add(self, est: np.ndarray, true: np.ndarray) -> None:
        self.abs_pct += float(np.sum(np.abs(est - true) / np.abs(true)))
        self.n += int(true.shape[0])

    @property
    def mape_pct(self) -> float:
        return 100.0 * self.abs_pct / self.n if self.n else float("nan")


@dataclass
class _OpenRun:
    spans: list = field(default_factory=list)
    parts: list = field(default_factory=list)


class RunChecker:
    """Accumulates chunks per node and checks each run as it closes.

    ``truth`` maps every node to its runs' ground truth: one entry serves
    every run, a longer list gives run ``k`` its own (fresh inputs per
    round). ``expected_modes`` maps every node to the restoration mode the
    workload declares for it; ``clamps`` maps device class to the
    (low, high) node-power range; ``healthy`` names the nodes whose MAPE
    must stay inside :data:`HEALTHY_MAPE_LIMIT_PCT`.
    """

    def __init__(self, truth: "dict[str, list[Truth]]", expected_modes: "dict[str, str]",
                 clamps: "dict[str, tuple[float, float]]",
                 healthy: "set[str]") -> None:
        self.truth = truth
        self.expected_modes = expected_modes
        self.clamps = clamps
        self.healthy = set(healthy)
        self.failures: "list[str]" = []
        self.n_failures = 0
        self.runs: "dict[str, int]" = {node: 0 for node in truth}
        self.modes: "dict[tuple[str, str], int]" = {}
        self.samples = 0
        self.chunks = 0
        self._open: "dict[str, _OpenRun]" = {}
        self._node_err = {"node": _ErrorSum(), "cpu": _ErrorSum(), "mem": _ErrorSum()}
        self._per_node: "dict[str, _ErrorSum]" = {node: _ErrorSum() for node in truth}
        #: device class -> [min, max] of p_node - sum(components)
        self._split_range: "dict[str, list[float]]" = {}

    # ------------------------------------------------------------ intake
    def fail(self, message: str) -> None:
        self.n_failures += 1
        if len(self.failures) < MAX_MESSAGES:
            self.failures.append(message)

    def chunk(self, node_id: str, start: int, stop: int, p_node, p_cpu, p_mem,
              p_gpu, provenance) -> None:
        """One restored chunk (arrays or lists, as the source gives them)."""
        run = self._open.setdefault(node_id, _OpenRun())
        run.spans.append((int(start), int(stop)))
        run.parts.append((p_node, p_cpu, p_mem, p_gpu, provenance))
        self.chunks += 1

    def end_run(self, node_id: str, mode: str) -> None:
        """Close one node's run and check it."""
        run = self._open.pop(node_id, _OpenRun())
        truths = self.truth.get(node_id)
        if truths is None:
            self.fail(f"{node_id}: run from a node the workload never declared")
            return
        k = self.runs[node_id]
        if len(truths) > 1 and k >= len(truths):
            self.fail(f"{node_id}: run {k + 1} has no simulated input")
            return
        truth = truths[k] if len(truths) > 1 else truths[0]
        self.runs[node_id] += 1
        self.modes[(node_id, mode)] = self.modes.get((node_id, mode), 0) + 1
        label = f"{node_id} run {self.runs[node_id]}"
        expected = self.expected_modes[node_id]
        if mode != expected:
            self.fail(f"{label}: mode mismatch, declared {expected!r}, ran {mode!r}")
        n = len(truth)
        pos = 0
        for start, stop in run.spans:
            if start != pos or stop <= start:
                self.fail(f"{label}: chunk [{start}, {stop}) does not continue "
                          f"the run at {pos}")
                return
            pos = stop
        if pos != n:
            self.fail(f"{label}: chunks cover {pos} of {n} samples")
            return
        p_node, p_cpu, p_mem, p_gpu, prov = (
            np.concatenate([np.asarray(p[k], dtype=np.float64) for p in run.parts])
            for k in range(5)
        )
        self.samples += n
        self._check_values(label, truth, mode, p_node, p_cpu, p_mem, p_gpu, prov)
        self._node_err["node"].add(p_node, truth.node)
        self._node_err["cpu"].add(p_cpu, truth.cpu)
        self._node_err["mem"].add(p_mem, truth.mem)
        self._per_node[node_id].add(p_node, truth.node)

    def _check_values(self, label, truth, mode, p_node, p_cpu, p_mem, p_gpu,
                      prov) -> None:
        lo, hi = self.clamps[truth.device_class]
        measured = prov == PROV_MEASURED
        restored = p_node[~measured]
        if restored.size and (restored.min() < lo - CLAMP_ATOL_W
                              or restored.max() > hi + CLAMP_ATOL_W):
            self.fail(f"{label}: restored node power [{restored.min():.3f}, "
                      f"{restored.max():.3f}] W leaves the {truth.device_class} "
                      f"clamps [{lo}, {hi}] W")
        # Measured instants keep their IM readings, which only had to pass
        # the plausibility gate: the clamps widened by a share of their span.
        margin = GATE_MARGIN_FRACTION * (hi - lo)
        readings = p_node[measured]
        if readings.size and (readings.min() < lo - margin
                              or readings.max() > hi + margin):
            self.fail(f"{label}: a kept IM reading lies outside the "
                      f"plausibility gate around [{lo}, {hi}] W")
        gpu_expected = truth.device_class == "gpu"
        if gpu_expected and p_gpu.shape[0] != p_node.shape[0]:
            self.fail(f"{label}: GPU node restored without a GPU channel")
            return
        parts = [p_cpu, p_mem] + ([p_gpu] if gpu_expected else [])
        if min(float(p.min()) for p in parts) < 0.0:
            self.fail(f"{label}: negative component power")
        gap = p_node - sum(parts)
        span = self._split_range.setdefault(
            truth.device_class, [float(gap.min()), float(gap.max())]
        )
        span[0] = min(span[0], float(gap.min()))
        span[1] = max(span[1], float(gap.max()))
        if not np.isin(prov, PROV_CODES).all():
            self.fail(f"{label}: unknown provenance codes")
        if mode == "static":
            kept = int(np.count_nonzero(measured))
            if kept < STATIC_READING_FLOOR:
                self.fail(f"{label}: static run kept {kept} readings, floor is "
                          f"{STATIC_READING_FLOOR}")
        if mode == "model_only" and (prov != 2).any():
            self.fail(f"{label}: model-only run flags samples as IM-backed")

    # ----------------------------------------------------------- results
    def finish(self, expected_runs: "dict[str, int]") -> None:
        """End-of-workload checks: split constants, MAPE band, totals.

        ``expected_runs`` is how many runs each node should have completed
        (rounds per node, from the driver's own count or the program's
        final exposition).
        """
        for node_id, run in self._open.items():
            if run.spans:
                self.fail(f"{node_id}: {len(run.spans)} chunk(s) after its last run")
        for device_class, (lo, hi) in self._split_range.items():
            if hi - lo > SPLIT_ATOL_W:
                self.fail(f"{device_class}: node power less components varies "
                          f"by {hi - lo:.3g} W; attribution must keep one "
                          f"constant per class")
        for node_id in sorted(self.healthy):
            err = self._per_node[node_id]
            if err.n and err.mape_pct >= HEALTHY_MAPE_LIMIT_PCT:
                self.fail(f"{node_id}: node MAPE {err.mape_pct:.2f} % is outside "
                          f"the {HEALTHY_MAPE_LIMIT_PCT} % band")
        expected_samples = 0
        for node_id, runs in expected_runs.items():
            if self.runs.get(node_id, 0) != runs:
                self.fail(f"{node_id}: {self.runs.get(node_id, 0)} runs "
                          f"restored, {runs} expected")
            expected_samples += runs * len(self.truth[node_id][0])
        if self.samples != expected_samples:
            self.fail(f"sample total {self.samples} != nodes x seconds x rounds "
                      f"= {expected_samples}")

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    def mape(self, channel: str) -> float:
        return self._node_err[channel].mape_pct

    def node_mape(self, node_id: str) -> float:
        return self._per_node[node_id].mape_pct


def check_mode_counters(checker: RunChecker, runs_total: "dict[tuple[str, str], float]") -> None:
    """The program's ``repro_monitor_runs_total{node,mode}`` must agree
    with the run boundaries it streamed."""
    if runs_total != {k: float(v) for k, v in checker.modes.items()}:
        diff = sorted(set(runs_total.items()) ^
                      {(k, float(v)) for k, v in checker.modes.items()})
        checker.fail(f"repro_monitor_runs_total disagrees with the streamed "
                     f"run boundaries: {diff[:6]}")


def runs_total_from_snapshot(snapshot: dict) -> "dict[tuple[str, str], float]":
    """``{(node, mode): count}`` out of a registry-snapshot-shaped dict."""
    family = snapshot.get("repro_monitor_runs_total")
    if not family:
        return {}
    return {
        (s["labels"]["node"], s["labels"]["mode"]): float(s["value"])
        for s in family["samples"]
    }
