"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline-campaign --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced variant and prints every per-layer metric instead (see
``perfbench/README.md``). Progress, the check log and the layer ledger go
to stderr.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402

WORKLOADS = ("offline-campaign", "online-finetune", "daemon-fleet")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input size; 'small' is for the benchmark's tests")
    parser.add_argument("--daemon-run-seconds", type=int, default=None,
                        help="daemon-fleet: simulated seconds per run "
                             "(default: the workload's own)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every launched daemon is
    # stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    harness.pin_environment()
    try:
        harness.import_program()
    except harness.BenchError as exc:
        harness.log(f"perfbench: {exc}")
        return 2
    if args.workload == "daemon-fleet":
        from perfbench.fleet import DaemonFleet

        DaemonFleet(args.seed, args.size, args.daemon_run_seconds).run(
            args.seconds, bool(args.trace))
    else:
        from perfbench.inproc import WORKLOADS as INPROC

        INPROC[args.workload](args.seed, args.size).run(args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
