"""Chaos tests for the serving engine: deterministic fault injection.

Every scenario drives the engine through a seeded
:class:`~repro.resilience.FaultInjector`, so the fault schedule — and
therefore the asserted outcome — is identical on every run.  All blocking
calls carry explicit timeouts; nothing here can hang the suite.
"""

import time

import numpy as np
import pytest

from repro.datasets.degradation import bicubic_upscale
from repro.deploy import tiled_upscale
from repro.resilience import CircuitBreaker, FaultInjector
from repro.serve import (
    BreakerOpen,
    EngineConfig,
    EngineError,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
)
from repro.train import predict_image

pytestmark = pytest.mark.chaos

KEY = ModelKey(name="M3", scale=2)


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry()


def make_engine(registry, **kwargs):
    """Build an engine from flat kwargs (collaborators split from config)."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("tile", 64)  # one tile per small test image
    kwargs.setdefault("cache_size", 0)
    extras = {
        k: kwargs.pop(k)
        for k in ("telemetry", "breaker", "fault_injector")
        if k in kwargs
    }
    return InferenceEngine(
        registry, KEY, config=EngineConfig(**kwargs), **extras
    )


def image(seed=0, shape=(20, 20)):
    return np.random.default_rng(seed).random(shape).astype(np.float32)


def degraded_reference(img, scale=2):
    return np.clip(bicubic_upscale(img, scale), 0.0, 1.0).astype(np.float32)


class TestTransientFaults:
    def test_a_failed_tile_fails_only_its_own_request(self, registry):
        # A 40x40 frame at tile 16 is nine tile jobs; the first one
        # raises, so that request fails, and the next one is exact.
        inj = FaultInjector(fail_first=1)
        first, second = image(5, (40, 40)), image(6, (40, 40))
        with make_engine(registry, workers=1, tile=16,
                         fault_injector=inj) as eng:
            with pytest.raises(EngineError, match="injected tile fault"):
                eng.upscale(first, timeout=30.0)
            out = eng.upscale(second, timeout=30.0)
            ref = tiled_upscale(eng.model, second, 2, tile=(16, 16))
            snap = eng.stats()
        np.testing.assert_array_equal(out, ref)
        assert snap["counters"]["engine.requests_error"] == 1
        assert snap["counters"]["engine.requests_ok"] == 1
        assert inj.stats()["faults"] == 1

    def test_seeded_fail_rate_is_survivable(self, registry):
        # 30% per-tile fault rate: the seeded schedule is fixed, so this
        # either passes always or never.
        inj = FaultInjector(seed=7, fail_rate=0.3)
        imgs = [image(i) for i in range(4)]
        with make_engine(registry, fault_injector=inj,
                         degraded_mode=True) as eng:
            results = [eng.upscale_ex(im, timeout=30.0) for im in imgs]
            snap = eng.stats()
        assert len(results) == 4
        assert snap["counters"]["engine.requests_total"] == 4
        assert snap["fault_injector"]["calls"] >= 4


class TestPersistentFaults:
    def test_degraded_mode_serves_bicubic_and_opens_breaker(self, registry):
        inj = FaultInjector(persistent=True)
        breaker = CircuitBreaker(failure_threshold=2, cooldown=60.0)
        with make_engine(registry, fault_injector=inj,
                         breaker=breaker, degraded_mode=True) as eng:
            imgs = [image(i) for i in range(3)]
            results = [eng.upscale_ex(im, timeout=30.0) for im in imgs]
            snap = eng.stats()

        for im, res in zip(imgs, results):
            assert res.degraded
            np.testing.assert_array_equal(res.image, degraded_reference(im))
        # Requests 1-2 fail (breaker trips at the 2nd); request 3 is
        # short-circuited without ever touching the model.
        assert results[2].reason == "circuit breaker open"
        assert snap["breaker"]["state"] == "open"
        assert snap["counters"]["engine.requests_error"] == 2
        assert snap["counters"]["engine.breaker_short_circuits"] == 1
        assert snap["counters"]["engine.requests_degraded"] == 3
        assert snap["states"]["engine.breaker_state"] == "open"
        assert inj.stats()["calls"] == 2  # request 3 never reached a tile

    def test_degraded_outputs_are_never_cached(self, registry):
        img = image(1)
        inj = FaultInjector(fail_first=1)
        with make_engine(registry, fault_injector=inj,
                         degraded_mode=True, cache_size=8) as eng:
            first = eng.upscale_ex(img, timeout=30.0)
            second = eng.upscale_ex(img, timeout=30.0)
        assert first.degraded and not second.degraded
        assert not second.cached  # the degraded bytes were not cached
        np.testing.assert_array_equal(first.image, degraded_reference(img))

    def test_without_degraded_mode_failures_raise(self, registry):
        inj = FaultInjector(persistent=True)
        breaker = CircuitBreaker(failure_threshold=1, cooldown=60.0)
        with make_engine(registry, fault_injector=inj,
                         breaker=breaker) as eng:
            with pytest.raises(EngineError, match="injected tile fault"):
                eng.upscale(image(0), timeout=30.0)
            # Breaker is now open: the next request short-circuits into
            # BreakerOpen instead of touching the model.
            with pytest.raises(BreakerOpen, match="circuit breaker open"):
                eng.upscale(image(1), timeout=30.0)


class TestBreakerRecovery:
    def test_half_open_probe_success_closes_breaker(self, registry):
        inj = FaultInjector(fail_first=2)
        breaker = CircuitBreaker(failure_threshold=2, cooldown=0.05)
        with make_engine(registry, fault_injector=inj,
                         breaker=breaker, degraded_mode=True) as eng:
            a = eng.upscale_ex(image(0), timeout=30.0)
            b = eng.upscale_ex(image(1), timeout=30.0)
            assert a.degraded and b.degraded
            assert eng.breaker.state == "open"

            time.sleep(0.1)  # cooldown elapses
            img = image(2)
            c = eng.upscale_ex(img, timeout=30.0)
            ref = predict_image(eng.model, img)
            snap = eng.stats()

        assert not c.degraded
        np.testing.assert_array_equal(c.image, ref)
        assert eng.breaker.state == "closed"
        assert snap["breaker"]["transitions"] == {
            "closed": 1, "open": 1, "half_open": 1,
        }
        assert snap["counters"]["engine.breaker_to_closed"] == 1
