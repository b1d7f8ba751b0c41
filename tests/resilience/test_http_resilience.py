"""HTTP-layer resilience: body-size limits, degraded headers, signal hooks."""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import _install_shutdown_handlers
from repro.datasets import decode_netpbm, encode_netpbm
from repro.resilience import FaultInjector
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
    make_server,
)

pytestmark = pytest.mark.chaos

KEY = ModelKey(name="M3", scale=2)


def start_server(engine, **kwargs):
    srv = make_server(engine, "127.0.0.1", 0, **kwargs)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


def url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def post(server, path, body):
    req = urllib.request.Request(url(server, path), data=body, method="POST")
    return urllib.request.urlopen(req, timeout=30)


class TestBodySizeLimit:
    @pytest.fixture(scope="class")
    def server(self):
        engine = InferenceEngine(
            ModelRegistry(), KEY, config=EngineConfig(workers=1, tile=64),
        )
        srv, thread = start_server(engine, max_body_bytes=4096)
        yield srv
        srv.close()
        thread.join(timeout=5)

    def test_small_body_is_served(self, server):
        img = np.random.default_rng(0).random((10, 10)).astype(np.float32)
        body = encode_netpbm(img)
        assert len(body) <= 4096
        with post(server, "/v1/upscale", body) as resp:
            out = decode_netpbm(resp.read())
        assert out.shape == (20, 20)

    def test_oversized_body_is_413(self, server):
        img = np.random.default_rng(1).random((80, 80)).astype(np.float32)
        body = encode_netpbm(img)
        assert len(body) > 4096
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/v1/upscale", body)
        assert err.value.code == 413
        detail = json.load(err.value)
        assert detail["error"]["code"] == "payload_too_large"
        assert "exceeds" in detail["error"]["message"]

    def test_lying_content_length_is_413_before_the_body(self, server):
        # The header promises 1 GB but only 12 bytes follow: a server that
        # read before checking would block here until the client timeout.
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/upscale")
            conn.putheader("Content-Length", str(10 ** 9))
            conn.endheaders(b"P5 1 1 255 \x00")
            resp = conn.getresponse()
            assert resp.status == 413
            detail = json.loads(resp.read())
        finally:
            conn.close()
        assert detail["error"]["code"] == "payload_too_large"

    def test_server_still_healthy_after_rejections(self, server):
        # The unread oversized body must not wedge or corrupt the listener.
        big = encode_netpbm(np.ones((80, 80), dtype=np.float32))
        for _ in range(3):
            with pytest.raises(urllib.error.HTTPError):
                post(server, "/v1/upscale", big)
        with urllib.request.urlopen(url(server, "/v1/healthz"), timeout=30) as r:
            assert json.load(r)["status"] == "ok"

    def test_rejection_does_not_touch_the_engine(self, server):
        before = server.engine.stats()["counters"]["engine.requests_total"]
        with pytest.raises(urllib.error.HTTPError):
            post(server, "/v1/upscale",
                 encode_netpbm(np.ones((80, 80), dtype=np.float32)))
        after = server.engine.stats()["counters"]["engine.requests_total"]
        assert after == before

    def test_invalid_max_body_bytes_rejected(self):
        engine = InferenceEngine(
            ModelRegistry(), KEY, config=EngineConfig(workers=1),
        )
        try:
            with pytest.raises(ValueError):
                make_server(engine, "127.0.0.1", 0, max_body_bytes=0)
        finally:
            engine.shutdown()


class TestDegradedHeader:
    def test_degraded_response_carries_the_header(self):
        engine = InferenceEngine(
            ModelRegistry(), KEY,
            config=EngineConfig(
                workers=1, tile=64, cache_size=0, degraded_mode=True,
            ),
            fault_injector=FaultInjector(persistent=True),
        )
        srv, thread = start_server(engine)
        try:
            img = np.random.default_rng(2).random((12, 12)).astype(np.float32)
            with post(srv, "/v1/upscale", encode_netpbm(img)) as resp:
                assert resp.headers["X-Degraded"] == "true"
                out = decode_netpbm(resp.read())
            assert out.shape == (24, 24)
        finally:
            srv.close()
            thread.join(timeout=5)

    def test_healthy_response_says_degraded_false(self):
        engine = InferenceEngine(
            ModelRegistry(), KEY, config=EngineConfig(workers=1, tile=64),
        )
        srv, thread = start_server(engine)
        try:
            img = np.random.default_rng(3).random((12, 12)).astype(np.float32)
            with post(srv, "/v1/upscale", encode_netpbm(img)) as resp:
                assert resp.headers["X-Degraded"] == "false"
        finally:
            srv.close()
            thread.join(timeout=5)


class TestShutdownHandlers:
    def test_sigint_and_sigterm_route_to_keyboard_interrupt(self):
        saved = {sig: signal.getsignal(sig)
                 for sig in (signal.SIGINT, signal.SIGTERM)}
        try:
            _install_shutdown_handlers()
            for sig in (signal.SIGINT, signal.SIGTERM):
                handler = signal.getsignal(sig)
                assert callable(handler)
                with pytest.raises(KeyboardInterrupt):
                    handler(sig, None)
        finally:
            for sig, old in saved.items():
                signal.signal(sig, old)

    def test_install_from_worker_thread_is_a_noop(self):
        # signal.signal raises ValueError off the main thread; the helper
        # must swallow it so `repro serve` can run under any runner.
        errors = []

        def install():
            try:
                _install_shutdown_handlers()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        t = threading.Thread(target=install)
        t.start()
        t.join(timeout=10)
        assert errors == []


SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))),
    "src",
)


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT],
                         ids=["sigterm", "sigint"])
def test_serve_process_drains_and_exits_zero_on_signal(sig):
    """The real ``repro serve`` CLI: handlers installed, banner printed,
    then a supervisor's SIGTERM or a Ctrl-C drains and exits 0."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--model", "M3",
         "--port", "0", "--workers", "1", "--tile", "32"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        lines = []
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            if line.startswith("endpoints:"):
                break
        assert lines and lines[-1].startswith("endpoints:"), lines
        proc.send_signal(sig)
        assert proc.wait(timeout=60) == 0
        assert "shutting down" in proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
