"""Cross-request dynamic batching: coalescing, bit-identity, isolation.

The contract under test (ISSUE: the tentpole): with ``batch_window_ms >
0`` concurrent requests coalesce into shared forward passes, and the
served bytes are **bit-identical** to the unbatched engine — batching is
purely a throughput knob, never an accuracy knob.  A poisoned batch
fails only the faulty request; its batchmates re-run singly and succeed.
"""

import threading
import urllib.request

import numpy as np
import pytest

from repro.datasets import decode_netpbm, encode_netpbm
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
    make_server,
)

KEY = ModelKey("M3", 2)


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry()


def _images(n, shape, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random(shape).astype(np.float32) for _ in range(n)]


def _concurrent_upscale(engine, images):
    """Fire all requests at once (barrier) so windows actually coalesce."""
    out = [None] * len(images)
    errors = []
    barrier = threading.Barrier(len(images))

    def run(i):
        barrier.wait()
        try:
            out[i] = engine.upscale(images[i])
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(images))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    return out


BATCHED = EngineConfig(
    workers=2, tile=32, cache_size=0,
    batch_window_ms=25.0, max_batch=8,
)


class TestCoalescing:
    def test_concurrent_requests_coalesce_bit_identically(self, registry):
        images = _images(16, (24, 24))  # one tile each => one batch group
        ref_engine = InferenceEngine(
            registry, KEY, config=BATCHED.replace(batch_window_ms=0.0)
        )
        try:
            reference = [ref_engine.upscale(img) for img in images]
        finally:
            ref_engine.shutdown()
        engine = InferenceEngine(registry, KEY, config=BATCHED)
        try:
            results = _concurrent_upscale(engine, images)
            stats = engine.stats()
        finally:
            engine.shutdown()
        for got, want in zip(results, reference):
            assert np.array_equal(got, want)  # bitwise, not allclose
        b = stats["batching"]
        assert b["coalesced_batches"] >= 1, b
        assert b["coalesced_tiles"] >= 2
        assert 0.0 < b["coalesce_ratio"] <= 1.0
        assert stats["histograms"]["engine.batch_size"]["max"] >= 2

    def test_mixed_shapes_never_share_a_batch(self, registry):
        # Different tile shapes => different groups; outputs must not
        # bleed across requests of either shape.
        small = _images(6, (16, 16), seed=1)
        large = _images(6, (24, 24), seed=2)
        ref_engine = InferenceEngine(
            registry, KEY, config=BATCHED.replace(batch_window_ms=0.0)
        )
        try:
            want = [ref_engine.upscale(i) for i in small + large]
        finally:
            ref_engine.shutdown()
        engine = InferenceEngine(registry, KEY, config=BATCHED)
        try:
            got = _concurrent_upscale(engine, small + large)
        finally:
            engine.shutdown()
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_multi_tile_requests_coalesce_across_requests(self, registry):
        # 40x40 at tile 32 => 4 tiles each, 3 distinct halo shapes; the
        # same-shape tiles of different requests still stack exactly.
        images = _images(6, (40, 40), seed=3)
        ref_engine = InferenceEngine(
            registry, KEY, config=BATCHED.replace(batch_window_ms=0.0)
        )
        try:
            want = [ref_engine.upscale(i) for i in images]
        finally:
            ref_engine.shutdown()
        engine = InferenceEngine(registry, KEY, config=BATCHED)
        try:
            got = _concurrent_upscale(engine, images)
            coalesced = engine.stats()["batching"]["coalesced_batches"]
        finally:
            engine.shutdown()
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert coalesced >= 1

    def test_window_zero_never_coalesces(self, registry):
        engine = InferenceEngine(
            registry, KEY, config=BATCHED.replace(batch_window_ms=0.0)
        )
        try:
            _concurrent_upscale(engine, _images(8, (24, 24)))
            b = engine.stats()["batching"]
        finally:
            engine.shutdown()
        assert b["coalesced_batches"] == 0
        assert b["mean_batch_size"] == 1.0


class _FailBatchOnce:
    """FaultInjector stand-in: poisons exactly the first injected call."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def on_tile(self):
        with self._lock:
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("injected: poisoned batch")

    def stats(self):
        return {"calls": self.calls}


class TestPoisonedBatch:
    def test_poisoned_batch_falls_back_to_singles(self, registry):
        inj = _FailBatchOnce()
        engine = InferenceEngine(
            registry, KEY,
            config=BATCHED.replace(batch_window_ms=50.0),
            fault_injector=inj,
        )
        try:
            images = _images(8, (24, 24), seed=4)
            results = _concurrent_upscale(engine, images)  # none may fail
            stats = engine.stats()
        finally:
            engine.shutdown()
        ref_engine = InferenceEngine(
            registry, KEY, config=BATCHED.replace(batch_window_ms=0.0)
        )
        try:
            for got, img in zip(results, images):
                assert np.array_equal(got, ref_engine.upscale(img))
        finally:
            ref_engine.shutdown()
        b = stats["batching"]
        assert b["batch_fallbacks"] >= 1  # the poisoned batch was isolated
        assert stats["counters"]["engine.requests_ok"] == len(images)


class TestHTTPStress:
    """Satellite 5: N clients on ``/v1/upscale``, byte parity, no bleed."""

    def test_concurrent_v1_clients_get_exact_bytes(self, registry):
        shapes = [(16, 16), (24, 24), (16, 16), (24, 24)]
        payloads = [
            encode_netpbm(img) for i, shape in enumerate(shapes)
            for img in _images(3, shape, seed=10 + i)
        ]
        # The reference pipeline mirrors the server exactly: the engine
        # sees the 8-bit decode of the wire payload, not the raw floats.
        ref_engine = InferenceEngine(
            registry, KEY, config=BATCHED.replace(batch_window_ms=0.0)
        )
        try:
            want = [encode_netpbm(ref_engine.upscale(decode_netpbm(p)))
                    for p in payloads]
        finally:
            ref_engine.shutdown()

        engine = InferenceEngine(
            registry, KEY, config=BATCHED.replace(batch_window_ms=10.0)
        )
        srv = make_server(engine, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        host, port = srv.server_address[:2]
        try:
            got = [None] * len(payloads)
            errors = []
            barrier = threading.Barrier(len(payloads))

            def client(i):
                req = urllib.request.Request(
                    f"http://{host}:{port}/v1/upscale",
                    data=payloads[i], method="POST",
                )
                barrier.wait()
                with urllib.request.urlopen(req, timeout=60) as resp:
                    got[i] = resp.read()

            def run(i):
                try:
                    client(i)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(payloads))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors
        finally:
            srv.close()
            thread.join(timeout=5)
        # Byte-identical responses, each to its own request: exactness
        # plus no cross-request pixel bleed in one assertion.
        for g, w in zip(got, want):
            assert g == w
