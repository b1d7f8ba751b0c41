"""End-to-end HTTP tests against an ephemeral in-process server."""

import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.datasets import decode_netpbm, encode_netpbm, save_image
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
    make_server,
)


@pytest.fixture(scope="module")
def server():
    registry = ModelRegistry()
    engine = InferenceEngine(
        registry, ModelKey(name="M3", scale=2),
        config=EngineConfig(workers=2, tile=16, cache_size=8),
    )
    srv = make_server(engine, "127.0.0.1", 0)  # ephemeral port
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.close()
    thread.join(timeout=5)


def url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def post(server, path, body):
    req = urllib.request.Request(url(server, path), data=body, method="POST")
    return urllib.request.urlopen(req, timeout=30)


def get_json(server, path):
    with urllib.request.urlopen(url(server, path), timeout=30) as resp:
        return json.load(resp)


class TestHealthAndStats:
    def test_healthz(self, server):
        body = get_json(server, "/v1/healthz")
        assert body["status"] == "ok"
        assert body["model"] == "M3" and body["scale"] == 2

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(server, "/nope")
        assert err.value.code == 404


class TestUpscale:
    def test_grey_round_trip(self, server):
        rng = np.random.default_rng(0)
        img = rng.random((24, 20)).astype(np.float32)
        with post(server, "/v1/upscale", encode_netpbm(img)) as resp:
            out = decode_netpbm(resp.read())
        assert out.shape == (48, 40)

    def test_identical_inputs_hit_the_cache(self, server):
        rng = np.random.default_rng(1)
        body = encode_netpbm(rng.random((16, 16)).astype(np.float32))
        with post(server, "/v1/upscale", body) as r1:
            first = r1.read()
        with post(server, "/v1/upscale", body) as r2:
            second = r2.read()
        assert first == second
        assert server.engine.cache.stats()["hits"] >= 1

    def test_colour_round_trip(self, server):
        rng = np.random.default_rng(2)
        img = rng.random((16, 12, 3)).astype(np.float32)
        with post(server, "/v1/upscale", encode_netpbm(img)) as resp:
            out = decode_netpbm(resp.read())
        assert out.shape == (32, 24, 3)

    def test_bad_payload_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/v1/upscale", b"definitely not an image")
        assert err.value.code == 400

    def test_empty_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/v1/upscale", b"")
        assert err.value.code == 400

    def test_post_to_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/elsewhere", b"x")
        assert err.value.code == 404

    def test_stats_report_served_traffic(self, server):
        stats = get_json(server, "/v1/stats")
        counters = stats["counters"]
        assert counters["engine.requests_total"] > 0
        assert counters["engine.requests_ok"] > 0
        latency = stats["histograms"]["engine.request_latency_ms"]
        assert latency["count"] > 0
        assert latency["p50"] > 0 and latency["p95"] >= latency["p50"]
        assert stats["cache"]["hits"] >= 1
        assert stats["config"]["workers"] == 2

    def test_keep_alive_responses_do_not_wait_for_delayed_acks(self, server):
        # Headers and body are two writes: with Nagle on, the body waits
        # ~40 ms for the client's delayed ACK on every keep-alive request.
        # One body posted 25 times: after the first, every response is a
        # cache hit, so the median times the wire, not a host-load-bound
        # 4-tile compute.
        rng = np.random.default_rng(3)
        body = encode_netpbm(rng.random((32, 32)).astype(np.float32))
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        latencies = []
        try:
            for _ in range(25):
                start = time.perf_counter()
                conn.request("POST", "/v1/upscale", body=body)
                resp = conn.getresponse()
                resp.read()
                latencies.append((time.perf_counter() - start) * 1e3)
                assert resp.status == 200
        finally:
            conn.close()
        assert np.median(latencies) < 20.0, latencies


@pytest.fixture(scope="module")
def parity_server():
    """Server at CLI-default tile size: requests below 96x96 LR are a
    single tile, so the engine runs the exact cmd_upscale predict path."""
    registry = ModelRegistry()
    engine = InferenceEngine(
        registry, ModelKey(name="M3", scale=2),
        config=EngineConfig(workers=2, cache_size=8),
    )
    srv = make_server(engine, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.close()
    thread.join(timeout=5)


class TestCliParity:
    def test_http_output_bit_identical_to_cmd_upscale(self, parity_server,
                                                      tmp_path):
        """The acceptance check: served bytes == CLI-written file bytes."""
        server = parity_server
        rng = np.random.default_rng(3)

        grey_in = os.path.join(tmp_path, "in.pgm")
        grey_out = os.path.join(tmp_path, "out.pgm")
        save_image(grey_in, rng.random((25, 19)).astype(np.float32))
        assert cli_main(["upscale", "--model", "M3", "--scale", "2",
                         "--input", grey_in, "--output", grey_out]) == 0
        with open(grey_in, "rb") as fh:
            body = fh.read()
        with post(server, "/v1/upscale", body) as resp:
            served = resp.read()
        with open(grey_out, "rb") as fh:
            assert served == fh.read()

    def test_http_colour_bit_identical_to_cmd_upscale(self, parity_server,
                                                      tmp_path):
        server = parity_server
        rng = np.random.default_rng(4)
        col_in = os.path.join(tmp_path, "in.ppm")
        col_out = os.path.join(tmp_path, "out.ppm")
        save_image(col_in, rng.random((14, 18, 3)).astype(np.float32))
        assert cli_main(["upscale", "--model", "M3", "--scale", "2",
                         "--input", col_in, "--output", col_out]) == 0
        with open(col_in, "rb") as fh:
            body = fh.read()
        with post(server, "/v1/upscale", body) as resp:
            served = resp.read()
        with open(col_out, "rb") as fh:
            assert served == fh.read()
