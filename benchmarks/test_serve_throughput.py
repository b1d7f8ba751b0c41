"""Serving throughput: requests/sec and latency percentiles for the engine.

Drives the :mod:`repro.serve` engine with concurrent clients posting
synthetic LR frames through SESR-M5 ×2 (collapsed at registration, as in
deployment) and reports requests/sec plus p50/p95 latency straight from the
engine's own telemetry.  Grid: thread workers (1 and multiple, exact and
micro-batched) against the process data plane (spawned workers + shared
memory tile arenas, :mod:`repro.dataplane`) at 1, 2, and multiple workers.
Each request is a distinct frame and the output cache is disabled, so the
numbers measure inference, not memoization; tiles per frame exceed the
worker count, so a single request already exercises the whole pool.

Thread workers scale only while workers x BLAS threads stay within the
cores: before the engine sized the BLAS pool (``repro.serve.cpu``), every
worker's conv GEMMs also fanned out over a one-thread-per-core OpenBLAS
pool, and 4 thread workers served fewer requests than 1.  The process
backend should beat one thread worker on a multi-core host.  Orderings are
asserted only when the host has the cores to show them; outputs are
asserted bit-identical across backends unconditionally.
"""

import os
import threading

import numpy as np
import pytest

from common import FAST, emit
from repro.serve import EngineConfig, InferenceEngine, ModelKey, ModelRegistry

FRAME = (48, 48) if FAST else (96, 96)
TILE = 24 if FAST else 32
CLIENTS = 4
REQUESTS_PER_CLIENT = 2 if FAST else 6
# Always benchmark a 4-worker pool: on multi-core hosts process workers
# should beat the single worker (each child owns a whole core); on smaller
# hosts the table shows what oversubscription costs.  Core count is in the
# emitted title so results are interpretable.
MULTI_WORKERS = 4


def run_load(engine: InferenceEngine) -> dict:
    """Hammer the engine from CLIENTS threads; return throughput stats."""
    rng = np.random.default_rng(0)
    frames = [
        rng.random(FRAME).astype(np.float32)
        for _ in range(CLIENTS * REQUESTS_PER_CLIENT)
    ]
    errors = []

    def client(idx: int) -> None:
        for r in range(REQUESTS_PER_CLIENT):
            try:
                engine.upscale(frames[idx * REQUESTS_PER_CLIENT + r])
            except Exception as exc:  # noqa: BLE001 — benchmark bookkeeping
                errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    from time import perf_counter

    start = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = perf_counter() - start
    assert not errors, errors
    latency = engine.telemetry.histogram("engine.request_latency_ms")
    n = len(frames)
    return {
        "requests": n,
        "rps": n / elapsed,
        "p50": latency.percentile(50),
        "p95": latency.percentile(95),
    }


@pytest.mark.bench
def test_serve_throughput():
    registry = ModelRegistry()
    key = ModelKey(name="M5", scale=2)
    # (label, backend, workers, microbatch)
    grid = [
        ("exact", "thread", 1, False),
        ("exact", "thread", MULTI_WORKERS, False),
        ("microbatch", "thread", 1, True),
        ("microbatch", "thread", MULTI_WORKERS, True),
        ("exact", "process", 1, False),
        ("exact", "process", 2, False),
        ("exact", "process", MULTI_WORKERS, False),
    ]
    results = {}
    reference = None
    check_frame = np.random.default_rng(1).random(FRAME).astype(np.float32)
    for mode, backend, workers, microbatch in grid:
        config = EngineConfig(
            workers=workers, tile=TILE, microbatch=microbatch,
            cache_size=0, max_pending=64, worker_backend=backend,
        )
        with InferenceEngine(registry, key, config=config) as engine:
            results[(mode, backend, workers)] = run_load(engine)
            if not microbatch:
                # The data plane must never trade pixels for speed: every
                # exact configuration, thread or process, produces the
                # same bytes.
                out = engine.upscale(check_frame)
                if reference is None:
                    reference = out
                else:
                    assert np.array_equal(reference, out), (
                        f"{backend} x{workers} diverged from the exact "
                        "single-thread output"
                    )

    base = results[("exact", "thread", 1)]["rps"]
    rows = [
        [mode, backend, workers, r["requests"], f"{r['rps']:.2f}",
         f"{r['p50']:.1f}", f"{r['p95']:.1f}", f"{r['rps'] / base:.2f}x"]
        for (mode, backend, workers), r in results.items()
    ]
    emit(
        f"Serving throughput — SESR-M5 x2, {FRAME[1]}x{FRAME[0]} LR frames, "
        f"tile {TILE}, {CLIENTS} concurrent clients "
        f"(host: {os.cpu_count()} cores)",
        ["mode", "backend", "workers", "requests", "req/s", "p50 ms",
         "p95 ms", "speedup"],
        rows,
        "serve_throughput.txt",
    )
    # Sanity floor only: relative orderings are host-dependent, but the
    # engine must sustain traffic in every configuration.
    assert all(r["rps"] > 0 for r in results.values())
    # Collapse happened once for the whole grid, not once per engine.
    assert registry.collapse_count(key) == 1
    # The GIL-escape claim is only measurable with real cores to spread
    # over; on a 1-core host the process pool pays IPC for no parallelism
    # and the ordering is noise.
    if (os.cpu_count() or 1) >= 2 and not FAST:
        assert (results[("exact", "process", 2)]["rps"]
                > results[("exact", "thread", 1)]["rps"]), (
            "2 process workers should out-serve 1 thread worker on a "
            "multi-core host"
        )
