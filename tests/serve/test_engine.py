"""Engine tests: bit-identity, timeout/overload/shutdown."""

import threading
import time

import numpy as np
import pytest

from repro.deploy import plan_tiles, receptive_radius, tiled_upscale
from repro.serve import (
    EngineClosed,
    EngineConfig,
    EngineError,
    EngineOverloaded,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
    RequestTimeout,
)
from repro.train import predict_image

KEY = ModelKey(name="M3", scale=2)


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry()


def make_engine(registry, **kwargs):
    """Build an engine from flat kwargs (collaborators split from config)."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("tile", 16)
    extras = {
        k: kwargs.pop(k)
        for k in ("telemetry", "breaker", "fault_injector")
        if k in kwargs
    }
    return InferenceEngine(
        registry, KEY, config=EngineConfig(**kwargs), **extras
    )


class _SlowModel:
    """Duck-typed model wrapper that sleeps before delegating."""

    def __init__(self, inner, delay):
        self._inner = inner
        self.delay = delay

    def eval(self):
        return self

    def __call__(self, x):
        time.sleep(self.delay)
        return self._inner(x)


class _BrokenModel:
    def eval(self):
        return self

    def __call__(self, x):
        raise RuntimeError("kaboom")


class TestPlanTiles:
    def test_covers_frame_exactly_once(self):
        specs = plan_tiles(50, 37, (16, 16), halo=4)
        covered = np.zeros((50, 37), dtype=int)
        for t in specs:
            covered[t.y0 : t.y1, t.x0 : t.x1] += 1
        assert np.all(covered == 1)
        for t in specs:
            assert t.hy0 <= t.y0 and t.hy1 >= t.y1
            assert 0 <= t.hx0 and t.hx1 <= 37

    def test_rejects_bad_tile(self):
        with pytest.raises(ValueError):
            plan_tiles(10, 10, (0, 4), halo=1)


class TestBitIdentity:
    def test_engine_matches_tiled_upscale(self, registry):
        rng = np.random.default_rng(0)
        img = rng.random((50, 37)).astype(np.float32)
        with make_engine(registry, cache_size=0) as eng:
            out = eng.upscale(img)
            ref = tiled_upscale(eng.model, img, 2, tile=(16, 16))
        assert np.array_equal(out, ref)

    def test_engine_matches_full_frame_predict(self, registry):
        # When one tile covers the frame the halo window clamps to the
        # image and the engine runs the exact cmd_upscale predict path —
        # bit-identical by construction.
        rng = np.random.default_rng(1)
        img = rng.random((33, 41)).astype(np.float32)
        with make_engine(registry, cache_size=0, tile=64) as eng:
            out = eng.upscale(img)
            ref = predict_image(eng.model, img)
        assert np.array_equal(out, ref)

    def test_multi_tile_close_to_full_frame(self, registry):
        # Across tile boundaries BLAS may reassociate (~1 ulp); quality is
        # unaffected, which is what the halo correctness actually buys.
        rng = np.random.default_rng(5)
        img = rng.random((33, 41)).astype(np.float32)
        with make_engine(registry, cache_size=0) as eng:
            out = eng.upscale(img)
            ref = predict_image(eng.model, img)
        assert np.allclose(out, ref, atol=1e-6)

    def test_default_halo_is_receptive_radius(self, registry):
        with make_engine(registry) as eng:
            assert eng.halo == receptive_radius(eng.model)


class TestValidationAndCache:
    def test_rejects_non_2d_input(self, registry):
        with make_engine(registry) as eng:
            with pytest.raises(ValueError, match="2-D"):
                eng.upscale(np.zeros((4, 4, 3), dtype=np.float32))

    def test_cache_hit_accounting(self, registry):
        rng = np.random.default_rng(4)
        img = rng.random((20, 20)).astype(np.float32)
        with make_engine(registry, cache_size=4) as eng:
            first = eng.upscale(img)
            second = eng.upscale(img)
            assert np.array_equal(first, second)
            stats = eng.cache.stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            snap = eng.stats()
            assert snap["counters"]["engine.cache_hits"] == 1
            assert snap["counters"]["engine.requests_total"] == 2
            # Only the miss ran inference.
            assert snap["counters"]["engine.requests_ok"] == 1

    def test_stats_shape(self, registry):
        with make_engine(registry) as eng:
            eng.upscale(np.zeros((12, 12), dtype=np.float32))
            snap = eng.stats()
        assert snap["config"]["model"] == "M3"
        assert snap["registry"]["models_loaded"] >= 1
        hist = snap["histograms"]["engine.request_latency_ms"]
        assert hist["count"] == 1 and hist["p95"] > 0


class TestFailureModes:
    def test_timeout_cancels_request(self, registry):
        with make_engine(registry, workers=1) as eng:
            eng.model = _SlowModel(eng.model, delay=0.3)
            start = time.perf_counter()
            with pytest.raises(RequestTimeout):
                eng.upscale(np.zeros((20, 20), dtype=np.float32),
                            timeout=0.05)
            assert time.perf_counter() - start < 2.0
            assert eng.stats()["counters"]["engine.requests_timeout"] == 1

    def test_overload_sheds_when_slots_busy(self, registry):
        with make_engine(registry, workers=1, max_pending=1) as eng:
            eng.model = _SlowModel(eng.model, delay=0.4)
            errors = []

            def slow_request():
                try:
                    eng.upscale(np.zeros((16, 16), dtype=np.float32))
                except EngineError as exc:
                    errors.append(exc)

            t = threading.Thread(target=slow_request)
            t.start()
            time.sleep(0.1)  # let it take the only slot
            with pytest.raises(EngineOverloaded):
                eng.upscale(np.ones((16, 16), dtype=np.float32))
            t.join()
            assert not errors
            snap = eng.stats()
            assert snap["counters"]["engine.requests_overloaded"] == 1

    def test_worker_exception_propagates(self, registry):
        with make_engine(registry) as eng:
            eng.model = _BrokenModel()
            with pytest.raises(EngineError, match="kaboom"):
                eng.upscale(np.zeros((16, 16), dtype=np.float32))
            assert eng.stats()["counters"]["engine.requests_error"] == 1

    def test_worker_failure_does_not_wedge_engine(self, registry):
        with make_engine(registry, cache_size=0) as eng:
            good = eng.model
            eng.model = _BrokenModel()
            with pytest.raises(EngineError):
                eng.upscale(np.zeros((16, 16), dtype=np.float32))
            eng.model = good
            out = eng.upscale(np.zeros((16, 16), dtype=np.float32))
            assert out.shape == (32, 32)


class TestShutdown:
    def test_submit_after_shutdown_raises(self, registry):
        eng = make_engine(registry)
        eng.shutdown()
        assert eng.closed
        with pytest.raises(EngineClosed):
            eng.upscale(np.zeros((8, 8), dtype=np.float32))

    def test_shutdown_is_idempotent(self, registry):
        eng = make_engine(registry)
        eng.shutdown()
        eng.shutdown()  # second call is a no-op

    def test_graceful_shutdown_finishes_queued_work(self, registry):
        eng = make_engine(registry, workers=1)
        eng.model = _SlowModel(eng.model, delay=0.05)
        results = []

        def request():
            results.append(eng.upscale(np.zeros((20, 20), dtype=np.float32)))

        t = threading.Thread(target=request)
        t.start()
        time.sleep(0.02)  # request in flight
        eng.shutdown(wait=True)
        t.join()
        assert len(results) == 1 and results[0].shape == (40, 40)

    def test_abrupt_shutdown_fails_queued_requests(self, registry):
        eng = make_engine(registry, workers=1)
        eng.model = _SlowModel(eng.model, delay=0.3)
        outcomes = []

        def request(img):
            try:
                eng.upscale(img, timeout=5.0)
                outcomes.append("ok")
            except EngineError:
                outcomes.append("error")

        # 16x16 images are a single tile job each: the first occupies the
        # worker, the second sits whole in the queue when shutdown hits.
        threads = [
            threading.Thread(
                target=request,
                args=(np.full((16, 16), i * 0.1, dtype=np.float32),),
            )
            for i in range(2)
        ]
        threads[0].start()
        time.sleep(0.1)  # first request busy on the single worker
        threads[1].start()
        time.sleep(0.05)
        eng.shutdown(wait=False)
        for t in threads:
            t.join()
        # The in-flight request finishes; the queued one is cancelled.
        assert sorted(outcomes) == ["error", "ok"]
