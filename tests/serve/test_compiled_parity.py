"""Serving parity: compiled plans must be invisible to HTTP clients.

``POST /v1/upscale`` bytes are pinned identical to the eager collapsed
network tiled the same way (the oracle), in both precisions, and the
degraded (bicubic) fallback is shown to bypass the compiled executor
entirely.
"""

import threading
import urllib.request

import numpy as np
import pytest

from repro.compile import CompiledModel
from repro.datasets import decode_netpbm, encode_netpbm
from repro.deploy import tiled_upscale
from repro.resilience import CircuitBreaker
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
    make_server,
)


def _serve(engine):
    srv = make_server(engine, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


def _post(srv, body):
    host, port = srv.server_address[:2]
    req = urllib.request.Request(
        f"http://{host}:{port}/v1/upscale", data=body, method="POST"
    )
    return urllib.request.urlopen(req, timeout=30)


@pytest.fixture(scope="module", params=["fp32", "int8"])
def served(request):
    registry = ModelRegistry()
    key = ModelKey(name="M3", scale=2, precision=request.param)
    engine = InferenceEngine(registry, key, config=EngineConfig(
        workers=2, tile=16, cache_size=0))
    srv, thread = _serve(engine)
    yield srv, registry.get(key)
    srv.close()
    thread.join(timeout=5)
    engine.shutdown()


class TestCompiledHTTPParity:
    def test_upscale_bytes_identical_compiled_vs_eager(self, served):
        srv, eager = served
        rng = np.random.default_rng(0)
        body = encode_netpbm(rng.random((24, 20)).astype(np.float32))
        with _post(srv, body) as r1:
            compiled_bytes = r1.read()
            assert r1.headers["X-Degraded"] == "false"
        # The server sees the 8-bit decode of the wire payload.
        img = decode_netpbm(body)
        eager_bytes = encode_netpbm(
            tiled_upscale(eager, img, 2, tile=(16, 16))
        )
        assert compiled_bytes == eager_bytes


class TestDegradedBypassesThePlan:
    def test_degraded_fallback_never_executes_the_compiled_model(self):
        registry = ModelRegistry()
        engine = InferenceEngine(
            registry, ModelKey(name="M3", scale=2),
            config=EngineConfig(workers=2, tile=16, cache_size=0,
                                degraded_mode=True),
            breaker=CircuitBreaker(failure_threshold=1, cooldown=60.0),
        )
        srv, thread = _serve(engine)
        try:
            assert isinstance(engine.model, CompiledModel)
            engine.breaker.record_failure()  # threshold 1: breaker opens
            rng = np.random.default_rng(1)
            body = encode_netpbm(rng.random((16, 16)).astype(np.float32))
            with _post(srv, body) as resp:
                assert resp.headers["X-Degraded"] == "true"
                assert len(resp.read()) > 0  # bicubic fallback delivered
            assert engine.model.runs == 0  # the plan never executed
        finally:
            srv.close()
            thread.join(timeout=5)
            engine.shutdown()
