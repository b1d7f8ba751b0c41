"""Host of the HTTP workloads: ``repro serve`` through its CLI entry point.

Calls ``repro.cli.main(["serve", "--port", "0", "--workers", N])`` (run
it with ``python -u`` so the bound port is printed at once), so the CLI
path is the one measured.  With ``--trace-dir`` it also answers two
signals from ``run.py``: SIGUSR1 starts the trace recorder and prints
``trace on``, SIGUSR2 stops it and prints ``trace off``.  The spans
(``spans.jsonl``) and the per-layer summary (``summary.json``) are
written there after the server's SIGTERM drain.
"""

from __future__ import annotations

import argparse
import json
import os
import signal

from tracing import Recorder


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--trace-dir", help="record spans; write them here at exit")
    args = p.parse_args(argv)

    recorder = None
    if args.trace_dir:
        recorder = Recorder()

        def on(signum, frame):
            recorder.start()
            print("trace on", flush=True)

        def off(signum, frame):
            recorder.stop()
            print("trace off", flush=True)

        signal.signal(signal.SIGUSR1, on)
        signal.signal(signal.SIGUSR2, off)

    from repro.cli import main as cli_main

    rc = cli_main(["serve", "--port", "0", "--workers", str(args.workers)])
    if recorder is not None:
        recorder.write_jsonl(os.path.join(args.trace_dir, "spans.jsonl"))
        with open(os.path.join(args.trace_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(recorder.summary(), fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
