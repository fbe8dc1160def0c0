"""Shared plumbing: environment pins, program import, statistics, results.

The benchmark drives the program from outside, so this module only knows
where the program lives (``src/`` at the checkout root), how to pin the
environment every measured process runs in, and how to turn raw samples
into the reported figures.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for files a run writes (daemon ndjson, snapshots, span
#: dumps); emptied at the end of every run.
WORK = ROOT / "perfbench" / "_work"

#: One BLAS/OpenMP thread everywhere: on a 2-core host a second BLAS
#: thread only adds contention noise to every timed section.
ENV_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: End-to-end metric units (BENCHMARK.json carries the same table).
E2E_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "cpu_us_per_sample": "us",
    "peak_rss_mb": "MB",
    "mape_node_pct": "%",
    "mape_cpu_pct": "%",
    "mape_mem_pct": "%",
    "scrape_p90_ms": "ms",
}


#: Setups per run; setup_s is their median.
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def pin_environment() -> None:
    """Apply :data:`ENV_PINS` to this process (before numpy is imported)."""
    os.environ.update(ENV_PINS)


def import_program() -> None:
    """Put the program's sources on ``sys.path`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"program sources not found under {SRC}; run the benchmark "
            f"from the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> "dict[str, str]":
    """Environment for a program process the benchmark launches."""
    env = dict(os.environ)
    env.update(ENV_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(int(-(-q * len(ordered) // 100)), 1)  # ceil(q*n/100)
    return float(ordered[min(rank, len(ordered)) - 1])


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(name: str, value: float, unit: "str | None" = None) -> "tuple[str, dict]":
    return name, {"value": float(value), "unit": unit or E2E_UNITS[name]}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout ends with the result."""
    print(message, file=sys.stderr, flush=True)
