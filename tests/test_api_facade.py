"""``repro.api`` facade: the stable surface does what the subsystems do."""

import numpy as np
import pytest

from repro import api
from repro.core import SESR
from repro.datasets import rgb_to_ycbcr, ycbcr_to_rgb
from repro.datasets.degradation import bicubic_upscale
from repro.deploy import tiled_upscale
from repro.train import predict_image


def test_all_names_resolve():
    expected = {
        "load", "collapse", "compile_model", "upscale",
        "EngineConfig", "InferenceEngine", "ModelKey", "ModelRegistry",
        "make_server",
    }
    assert set(api.__all__) == expected
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_api_is_importable_from_the_package_root():
    import repro

    assert repro.api is api


def test_load_builds_named_models():
    assert isinstance(api.load("M3", scale=2), SESR)
    assert api.load("FSRCNN", scale=2).scale == 2
    with pytest.raises(KeyError):
        api.load("M99")


def test_load_round_trips_a_checkpoint(tmp_path):
    from repro.nn import save_state

    model = api.load("M3", scale=2, seed=7)
    path = str(tmp_path / "m3.npz")
    save_state(model, path)
    again = api.load("M3", scale=2, ckpt=path)
    x = np.random.default_rng(0).random((8, 8)).astype(np.float32)
    assert np.array_equal(predict_image(model, x), predict_image(again, x))


def test_collapse_matches_model_collapse():
    model = api.load("M3", scale=2)
    x = np.random.default_rng(1).random((10, 10)).astype(np.float32)
    want = predict_image(model.collapse(), x)
    assert np.array_equal(predict_image(api.collapse(model), x), want)


def test_upscale_grey_matches_predict_image():
    model = api.collapse(api.load("M3", scale=2))
    x = np.random.default_rng(2).random((12, 12)).astype(np.float32)
    assert np.array_equal(api.upscale(model, x), predict_image(model, x))


def test_upscale_tiled_matches_tiled_upscale():
    model = api.collapse(api.load("M3", scale=2))
    x = np.random.default_rng(3).random((20, 20)).astype(np.float32)
    want = tiled_upscale(model, x, 2, tile=(8, 8))
    assert np.array_equal(api.upscale(model, x, tile=8), want)


def test_upscale_colour_follows_the_paper_protocol():
    model = api.collapse(api.load("M3", scale=2))
    rgb = np.random.default_rng(4).random((10, 10, 3)).astype(np.float32)
    ycbcr = rgb_to_ycbcr(rgb)
    want = ycbcr_to_rgb(np.stack([
        predict_image(model, np.ascontiguousarray(ycbcr[..., 0])),
        bicubic_upscale(ycbcr[..., 1], 2),
        bicubic_upscale(ycbcr[..., 2], 2),
    ], axis=2))
    assert np.array_equal(api.upscale(model, rgb), want)


def test_upscale_compiled_model_infers_scale():
    compiled = api.compile_model(api.collapse(api.load("M3", scale=2)))
    x = np.random.default_rng(5).random((9, 9)).astype(np.float32)
    assert api.upscale(compiled, x).shape == (18, 18)


def test_upscale_rejects_bad_shapes():
    model = api.collapse(api.load("M3", scale=2))
    with pytest.raises(ValueError, match="grey"):
        api.upscale(model, np.zeros((4, 4, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="scale"):
        api.upscale(object(), np.zeros((4, 4), dtype=np.float32))

