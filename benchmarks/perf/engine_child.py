"""Host of the in-process workloads: one ``InferenceEngine`` and its callers.

``run.py`` starts it fresh for every run, so set-up is a cold start and
the process's peak RSS belongs to this engine and its callers alone.  It
prints ``ready`` once the engine is constructed, runs the warm-up and
timed phases (and, with ``--trace 1``, a traced phase after them), and
writes every sample to ``result.json`` in ``--work`` (with ``spans.jsonl``
when traced).  ``--setup-only`` exits after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import os

from loadgen import drive
from stats import peak_rss_mb
from tracing import Recorder
from workloads import (MODEL, SCALE, WARMUP_S, WORKLOADS, FrameStream,
                       as_float, make_pool)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--work", help="directory for result.json and spans.jsonl")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    from repro.serve import EngineConfig, InferenceEngine, ModelKey, ModelRegistry

    engine = InferenceEngine(ModelRegistry(), ModelKey(MODEL, SCALE),
                             config=EngineConfig(workers=args.workers))
    print("ready", flush=True)
    if args.setup_only:
        engine.shutdown()
        return 0

    wl = WORKLOADS[args.workload]
    frames = [[as_float(f) for f in cls] for cls in make_pool(wl, args.seed)]
    stream = FrameStream(wl, args.seed)
    clients = min(wl.clients, args.workers)

    def send(k, cls, frame):
        try:
            return "", engine.upscale(frames[cls][frame]), ""
        except Exception as exc:  # noqa: BLE001 — a failed request, reported
            return f"exception: {exc!r}", None, ""

    def phase(no: int, seconds: float, timed: bool) -> dict:
        samples, start = drive(wl, args.seed, no, seconds, stream, send,
                               clients, timed)
        return {"start": start, "samples": [s.to_row() for s in samples],
                "cache": engine.stats()["cache"]}

    out = {"phases": {"warmup": phase(0, WARMUP_S, False),
                      "timed": phase(1, args.seconds, True)}}
    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.start()
        out["phases"]["traced"] = phase(2, args.seconds, True)
        recorder.stop()
    out["peak_rss_mb"] = peak_rss_mb("self")
    engine.shutdown()
    if recorder is not None:
        out["trace"] = recorder.summary()
        recorder.write_jsonl(os.path.join(args.work, "spans.jsonl"))
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
