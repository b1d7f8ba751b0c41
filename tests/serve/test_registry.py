"""Registry tests: memoization, name resolution, precision keying."""

import os
import threading

import numpy as np
import pytest

from repro import zoo
from repro.compile import CompiledModel
from repro.core.sesr import CollapsedSESR
from repro.deploy import QuantizedSESR
from repro.nn import save_state
from repro.serve import ModelKey, ModelRegistry, build_training_model
from repro.serve.registry import PRECISIONS


class TestModelKey:
    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError, match="precision"):
            ModelKey(name="M3", scale=2, precision="fp16")

    def test_is_hashable_and_comparable(self):
        a = ModelKey("M3", 2)
        b = ModelKey("M3", 2)
        assert a == b and hash(a) == hash(b)
        assert a != ModelKey("M3", 2, precision="int8")


class TestNameResolution:
    def test_short_and_zoo_names_resolve(self):
        for name in ("M3", "m3", "SESR-M3"):
            model = build_training_model(name, scale=2)
            assert model.f == 16 and model.m == 3

    def test_fsrcnn_resolves(self):
        model = build_training_model("FSRCNN", scale=2)
        assert type(model).__name__ == "FSRCNN"

    def test_unknown_name_lists_deployable_entries(self):
        with pytest.raises(KeyError, match="SESR-M5"):
            build_training_model("resnet50", scale=2)


class TestMemoization:
    def test_collapse_happens_exactly_once(self):
        reg = ModelRegistry()
        key = ModelKey("M3", 2)
        first = reg.get(key)
        for _ in range(5):
            assert reg.get(key) is first
        assert reg.collapse_count(key) == 1
        assert isinstance(first, CollapsedSESR)

    def test_concurrent_first_requests_collapse_once(self):
        reg = ModelRegistry()
        key = ModelKey("M3", 2)
        results = []
        barrier = threading.Barrier(4)

        def fetch():
            barrier.wait()
            results.append(reg.get(key))

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.collapse_count(key) == 1
        assert all(r is results[0] for r in results)

    def test_distinct_keys_distinct_models(self):
        reg = ModelRegistry()
        m_fp32 = reg.get(ModelKey("M3", 2))
        m_int8 = reg.get(ModelKey("M3", 2, precision="int8"))
        assert m_fp32 is not m_int8
        assert isinstance(m_int8, QuantizedSESR)
        assert reg.stats()["models_loaded"] == 2

    def test_evict_forces_rebuild(self):
        reg = ModelRegistry()
        key = ModelKey("M3", 2)
        first = reg.get(key)
        assert reg.evict(key)
        assert not reg.evict(key)
        assert reg.get(key) is not first
        assert reg.collapse_count(key) == 2


class TestCheckpointLoading:
    def test_ckpt_changes_served_weights(self, tmp_path):
        trained = build_training_model("M3", scale=2)
        for p in trained.parameters():
            p.data += 0.01  # make the checkpoint differ from paper init
        ckpt = os.path.join(tmp_path, "m3.npz")
        save_state(trained, ckpt)

        reg = ModelRegistry()
        fresh = reg.get(ModelKey("M3", 2))
        loaded = reg.get(ModelKey("M3", 2, ckpt=ckpt))
        assert not np.array_equal(
            fresh.first.weight.data, loaded.first.weight.data
        )
        # The ckpt-keyed entry matches collapsing the checkpoint directly.
        assert np.array_equal(
            loaded.first.weight.data, trained.collapse().first.weight.data
        )


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("scale", (2, 4))
@pytest.mark.parametrize("name", zoo.factory_names())
def test_every_deployable_key_compiles_or_is_rejected_cleanly(
        name, scale, precision):
    """Every key the registry accepts compiles; int8 on a non-SESR model
    is the one rejection, with the message ``repro compile`` gives."""
    key = ModelKey(name, scale, precision=precision)
    if precision == "int8" and not name.startswith("SESR-"):
        with pytest.raises(ValueError, match="requires a SESR model"):
            ModelRegistry().get_compiled(key)
    else:
        assert isinstance(ModelRegistry().get_compiled(key), CompiledModel)
