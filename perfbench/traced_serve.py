"""``repro serve`` (or one tier worker) with layer spans recorded.

Usage: ``python perfbench/traced_serve.py serve|worker ARGS...`` with
the directory for span files in ``PERFBENCH_SPAN_DIR``.  ``serve`` runs
``repro serve ARGS``; under ``--workers N`` the tier's workers are
launched through this file too, as ``worker`` processes.  Each process
writes ``spans-<pid>.json`` into the span directory when it stops
(SIGINT for ``serve``, the tier's SIGTERM for a worker).
"""

from __future__ import annotations

import os
import signal
import sys

from tracing import Recorder


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    signal.signal(signal.SIGTERM, _interrupt)
    from repro.serve import workers
    original = workers._worker_command

    def traced_worker_command(worker_id, config):
        command = original(worker_id, config)
        # [python, "-c", entry, args...] -> [python, this file, worker,
        # args...]
        return [command[0], os.path.abspath(__file__), "worker",
                *command[3:]]

    workers._worker_command = traced_worker_command
    try:
        if mode == "serve":
            from repro.cli import main as cli_main
            return cli_main(["serve", *argv])
        return workers.worker_main(argv)
    finally:
        recorder.dump(os.path.join(os.environ["PERFBENCH_SPAN_DIR"],
                                   f"spans-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main())
