"""Launch ``repro`` with every layer wrapped for a traced daemon run.

Usage: ``python perfbench/bootstrap.py DUMP_DIR <repro arguments>``.

The wrappers are installed here, in the daemon process, before the CLI
forks its shard processes, so every shard inherits them. Each shard
forgets the daemon's spans when it starts and writes its own dump to
``DUMP_DIR`` when it ends; the daemon writes its dump after the drain.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path


def main(argv: "list[str]") -> int:
    dump_dir = Path(argv[0])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.tracing import SpanRecorder

    import repro.cli
    import repro.serve.daemon

    recorder = SpanRecorder()
    recorder.install()
    run_worker = repro.serve.daemon.run_worker

    @functools.wraps(run_worker)
    def traced_worker(*args, **kwargs):
        recorder.reset()
        try:
            return run_worker(*args, **kwargs)
        finally:
            recorder.dump(dump_dir / f"shard-{os.getpid()}.json")

    repro.serve.daemon.run_worker = traced_worker
    try:
        return repro.cli.main(argv[1:])
    finally:
        recorder.dump(dump_dir / f"daemon-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
