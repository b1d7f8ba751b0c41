"""Serving throughput: requests/sec and latency percentiles for the engine.

Drives the :mod:`repro.serve` engine with concurrent clients posting
synthetic LR frames through SESR-M5 ×2 (collapsed at registration, as in
deployment) and reports requests/sec plus p50/p95 latency straight from the
engine's own telemetry.  Grid: thread workers at 1, 2 and 4.  Each
request is a distinct frame and the output cache is disabled, so the
numbers measure inference, not memoization; tiles per frame exceed the
worker count, so a single request already exercises the whole pool.

Thread workers scale only while workers x BLAS threads stay within the
cores: before the engine sized the BLAS pool (``repro.serve.cpu``), every
worker's conv GEMMs also fanned out over a one-thread-per-core OpenBLAS
pool, and 4 thread workers served fewer requests than 1.  The rows are
asserted bit-identical to each other unconditionally; on a host with
>= 2 cores the full (non-``REPRO_BENCH_FAST``) run also asserts that 2
workers out-serve 1.
"""

import threading

import numpy as np
import pytest

from common import FAST, emit
from repro.serve import EngineConfig, InferenceEngine, ModelKey, ModelRegistry
from repro.serve.cpu import cores

FRAME = (48, 48) if FAST else (96, 96)
TILE = 24 if FAST else 32
CLIENTS = 4
REQUESTS_PER_CLIENT = 2 if FAST else 6
# 4 workers on a 2-core host shows what oversubscription costs; the core
# count is in the emitted title so results are interpretable.
WORKERS = (1, 2, 4)


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
    results = {}
    reference = None
    check_frame = np.random.default_rng(1).random(FRAME).astype(np.float32)
    for workers in WORKERS:
        config = EngineConfig(
            workers=workers, tile=TILE, cache_size=0, max_pending=64,
        )
        with InferenceEngine(registry, key, config=config) as engine:
            results[workers] = run_load(engine)
            # Worker count is a speed knob, never a pixel knob: every
            # configuration produces the same bytes.
            out = engine.upscale(check_frame)
            if reference is None:
                reference = out
            else:
                assert np.array_equal(reference, out), (
                    f"x{workers} diverged from the single-worker output"
                )

    base = results[1]["rps"]
    rows = [
        [workers, r["requests"], f"{r['rps']:.2f}",
         f"{r['p50']:.1f}", f"{r['p95']:.1f}", f"{r['rps'] / base:.2f}x"]
        for workers, r in results.items()
    ]
    emit(
        f"Serving throughput — SESR-M5 x2, {FRAME[1]}x{FRAME[0]} LR frames, "
        f"tile {TILE}, {CLIENTS} concurrent clients "
        f"(host: {cores()} cores)",
        ["workers", "requests", "req/s", "p50 ms", "p95 ms", "speedup"],
        rows,
        "serve_throughput.txt",
    )
    # Sanity floor: the engine must sustain traffic in every configuration.
    assert all(r["rps"] > 0 for r in results.values())
    # Collapse happened once for the whole grid, not once per engine.
    assert registry.collapse_count(key) == 1
    # Worker scaling needs real cores to spread over; on a 1-core host
    # the ordering is noise, and the FAST load is too small to time.
    if cores() >= 2 and not FAST:
        assert results[2]["rps"] > base, (
            "2 workers should out-serve 1 on a multi-core host"
        )
