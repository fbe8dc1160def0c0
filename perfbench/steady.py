"""Steadiness check: run one workload k times and compare spreads to bounds.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload daemon-fleet --runs 10
    python3 perfbench/steady.py --workload online-finetune --runs 5 --first-seed 100

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...) and
the ``run_seconds`` of BENCHMARK.json unless ``--seconds`` overrides it.
For every end-to-end metric the table gives the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound; a spread above the bound is
flagged (``setup_s`` is exempt: only its median is compared between sets).
``--out`` writes the raw results as JSON for comparing two sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: "list[dict]", spec: dict) -> "tuple[list[str], bool]":
    lines = [f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>8} {'bound':>6}  ok"]
    steady = True
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        exempt = m["name"] == "setup_s"
        ok = exempt or spread <= m["bound"]
        steady &= ok
        lines.append(f"{m['name']:<20} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                     f"{spread:8.3f} {m['bound']:6.2f}  "
                     f"{'exempt' if exempt else ('yes' if ok else 'NO')}"
                     f"{'' if exempt or spread <= m['bound'] / 3 else ' (above bound/3)'}")
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    lines.append(f"failed share per run: {sorted(shares)}; all correct: {correct}")
    return lines, steady and correct and len(shares) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        result = run_once(args.workload, seed, seconds, 0)
        results.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()),
            flush=True)
    lines, steady = summarise(results, spec)
    print("\n".join(lines))
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
