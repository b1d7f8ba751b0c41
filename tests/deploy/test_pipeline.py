"""The deploy path: one loader, one collapse/int8 rule, one colour protocol."""

import numpy as np
import pytest

from repro import api, zoo
from repro.core import FSRCNN, SESR
from repro.core.sesr import CollapsedSESR
from repro.deploy import (
    QuantizedSESR,
    load,
    to_deployable,
    upscale_colour,
)
from repro.nn import save_state
from repro.serve import ModelKey, ModelRegistry
from repro.train import CheckpointCorrupt


@pytest.mark.parametrize("scale", (2, 4))
@pytest.mark.parametrize("name", zoo.factory_names())
def test_api_and_registry_build_the_same_network(name, scale):
    """The benchmark oracle (``api.collapse(api.load(...))``) and the
    server (``ModelRegistry.get``) deploy the same model."""
    oracle = api.collapse(api.load(name, scale))
    served = ModelRegistry().get(ModelKey(name, scale))
    assert type(oracle) is type(served)
    want, got = oracle.state_dict(), served.state_dict()
    assert want.keys() == got.keys()
    for k in want:
        assert np.array_equal(want[k], got[k]), k


class TestLoad:
    @pytest.mark.parametrize("name", ["SESR-M5", "M5", "m5", "sesr-m5"])
    def test_sesr_names_resolve(self, name):
        model = load(name, 2)
        assert isinstance(model, SESR) and (model.f, model.m) == (16, 5)

    @pytest.mark.parametrize("name", ["FSRCNN", "fsrcnn", "FSRCNN (our setup)"])
    def test_fsrcnn_names_resolve(self, name):
        assert isinstance(load(name, 4), FSRCNN)

    def test_unknown_name_lists_the_deployable_entries(self):
        with pytest.raises(KeyError, match="FSRCNN \\(our setup\\)"):
            load("M99", 2)

    def test_factory_kwargs_reach_the_factory(self):
        assert load("M3", 2, mode="expanded").first.mode == "expanded"
        # FSRCNN has no linear blocks: a training mode names the same net.
        assert isinstance(load("FSRCNN", 2, mode="expanded"), FSRCNN)

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load("M3", 2, ckpt=str(tmp_path / "nope.npz"))

    def test_mismatched_checkpoint_names_the_file(self, tmp_path):
        path = str(tmp_path / "m3.npz")
        save_state(load("M3", 2), path)
        with pytest.raises(KeyError, match="m3.npz.*does not match"):
            load("M5", 2, ckpt=path)

    def test_unreadable_checkpoint(self, tmp_path):
        path = tmp_path / "m3.npz"
        save_state(load("M3", 2), str(path))
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointCorrupt, match="unreadable"):
            load("M3", 2, ckpt=str(path))


class TestToDeployable:
    def test_sesr_collapses_in_eval_mode(self):
        deployed = to_deployable(load("M3", 2))
        assert isinstance(deployed, CollapsedSESR) and not deployed.training

    def test_int8_quantizes_sesr(self):
        assert isinstance(to_deployable(load("M3", 2), "int8"), QuantizedSESR)

    def test_a_model_without_collapse_passes_through(self):
        model = load("FSRCNN", 2)
        model.train()
        assert to_deployable(model) is model and not model.training

    def test_int8_requires_sesr(self):
        with pytest.raises(ValueError, match="requires a SESR model"):
            to_deployable(load("FSRCNN", 2), "int8")

    def test_unknown_precision(self):
        with pytest.raises(ValueError, match="precision"):
            to_deployable(load("M3", 2), "fp16")


class TestUpscaleColour:
    def test_grey_goes_straight_to_the_callable(self):
        grey = np.zeros((4, 5), dtype=np.float32)
        seen = []

        def run_y(y):
            seen.append(y)
            return np.ones((8, 10), dtype=np.float32)

        out = upscale_colour(grey, 2, run_y)
        assert seen[0] is grey and out.shape == (8, 10)

    def test_colour_runs_y_once_with_bicubic_chroma(self):
        rgb = np.random.default_rng(0).random((6, 4, 3)).astype(np.float32)
        calls = []

        def run_y(y):
            calls.append(y.shape)
            assert y.flags["C_CONTIGUOUS"]
            return np.repeat(np.repeat(y, 2, axis=0), 2, axis=1)

        assert upscale_colour(rgb, 2, run_y).shape == (12, 8, 3)
        assert calls == [(6, 4)]

    def test_rejects_other_channel_counts(self):
        with pytest.raises(ValueError, match="colour"):
            upscale_colour(np.zeros((4, 4, 4)), 2, lambda y: y)
