"""One oracle for every serving configuration.

Hypothesis draws a deployable key (SESR and FSRCNN, both scales, fp32 and
int8), an odd or ragged frame size, the tile, the worker count and the
cross-request batch window.  Whatever it draws, the served bytes must
equal ``tiled_upscale`` on the registry's eager model at the same tile:
for concurrent frames through ``InferenceEngine.upscale`` and for a grey
or colour body through ``POST /v1/upscale`` (wrapped in the colour
protocol).  Tile geometry changes the bits of ragged frames (BLAS row
counts differ), so the oracle tiles exactly as the engine does.
"""

import threading
import urllib.request

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import zoo
from repro.datasets import decode_netpbm, encode_netpbm
from repro.deploy import tiled_upscale, upscale_colour
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
    make_server,
)

KEYS = [
    ModelKey(name, scale, precision=precision)
    for name in zoo.factory_names()
    for scale in (2, 4)
    for precision in ("fp32", "int8")
    if not (precision == "int8" and name.startswith("FSRCNN"))
]
REGISTRY = ModelRegistry()


@st.composite
def serving_cases(draw):
    window = draw(st.sampled_from([0.0, 15.0]))
    return {
        "key": draw(st.sampled_from(KEYS)),
        "shape": (draw(st.integers(9, 44)), draw(st.integers(9, 44))),
        "frames": draw(st.integers(2, 3)),
        "tile": draw(st.integers(8, 40)),
        "workers": draw(st.integers(1, 3)),
        "batch_window_ms": window,
        "max_batch": draw(st.integers(2, 8)) if window else 8,
        "colour": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def _upscale_concurrently(engine, frames):
    out = [None] * len(frames)
    errors = []
    barrier = threading.Barrier(len(frames))

    def run(i):
        barrier.wait()
        try:
            out[i] = engine.upscale(frames[i])
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(frames))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    return out


def _post(srv, body):
    host, port = srv.server_address[:2]
    req = urllib.request.Request(
        f"http://{host}:{port}/v1/upscale", data=body, method="POST"
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.read()


def _serve_and_compare(case) -> int:
    """Serve one drawn configuration; returns the coalesced tile count."""
    key, tile = case["key"], case["tile"]
    eager = REGISTRY.get(key)

    def oracle(y):
        return tiled_upscale(eager, y, key.scale, tile=(tile, tile))

    rng = np.random.default_rng(case["seed"])
    frames = [rng.random(case["shape"]).astype(np.float32)
              for _ in range(case["frames"])]
    body_shape = case["shape"] + ((3,) if case["colour"] else ())
    body = encode_netpbm(rng.random(body_shape).astype(np.float32))

    engine = InferenceEngine(REGISTRY, key, config=EngineConfig(
        workers=case["workers"], tile=tile,
        batch_window_ms=case["batch_window_ms"],
        max_batch=case["max_batch"],
    ))
    srv = make_server(engine, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        served = _upscale_concurrently(engine, frames)
        served_body = _post(srv, body)
        coalesced = engine.stats()["batching"]["coalesced_tiles"]
        # The oracle runs while the engine still sizes the BLAS pool: the
        # bits of FSRCNN's deconv GEMMs differ between 1 and 2 BLAS
        # threads, so oracle and workers must use the same count.
        expected = [oracle(frame) for frame in frames]
        expected_body = encode_netpbm(
            upscale_colour(decode_netpbm(body), key.scale, oracle)
        )
    finally:
        srv.close()  # also shuts the engine down
        thread.join(timeout=5)

    for i, (got, want) in enumerate(zip(served, expected)):
        assert np.array_equal(got, want), f"{key} frame {i}"
    assert served_body == expected_body, f"{key} HTTP body"
    return coalesced


def test_every_serving_configuration_matches_the_tiled_oracle():
    coalesced = []

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(serving_cases())
    def check(case):
        coalesced.append(_serve_and_compare(case))

    check()
    # The draws must have exercised cross-request coalescing at least once,
    # or the batched half of the claim went untested.
    assert any(coalesced), coalesced
