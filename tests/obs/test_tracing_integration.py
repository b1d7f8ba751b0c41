"""End-to-end tracing: serve and train emit the documented span trees."""

import numpy as np
import pytest

from repro.deploy import plan_tiles
from repro.obs import Tracer, set_tracer, span_tree
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
)


@pytest.fixture
def tracer():
    t = Tracer()
    prev = set_tracer(t)
    try:
        yield t
    finally:
        set_tracer(prev)


@pytest.fixture
def engine():
    registry = ModelRegistry(seed=0)
    eng = InferenceEngine(
        registry, ModelKey(name="M3", scale=2),
        config=EngineConfig(workers=2, tile=16, cache_size=0),
    )
    yield eng
    eng.shutdown()


class TestEngineTracing:
    def test_request_span_tree_matches_tiling(self, tracer, engine):
        """request → one serve.tile per planned tile → stitch spans."""
        img = np.random.default_rng(0).random((40, 52))
        result = engine.upscale_ex(img)
        spans = tracer.ring.trace(result.trace_id)
        roots, children = span_tree(spans)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "serve.request"
        assert root.status == "ok"
        assert root.attrs["model"] == "M3"

        expected = len(plan_tiles(40, 52, engine.tile, engine.halo))
        tiles = [s for s in spans if s.name == "serve.tile"]
        assert len(tiles) == expected
        assert root.attrs["tiles"] == expected
        # Tile spans sit under the request (fan-out across worker threads
        # is carried by attach()), and the stitch phase is recorded.
        for t in tiles:
            assert t.trace_id == result.trace_id
        stitches = [s for s in spans if s.name == "serve.stitch"]
        assert stitches
        assert all(s.trace_id == result.trace_id for s in stitches)

    def test_client_supplied_trace_id_adopted(self, tracer, engine):
        img = np.random.default_rng(1).random((20, 20))
        result = engine.upscale_ex(img, trace_id="deadbeefdeadbeef")
        assert result.trace_id == "deadbeefdeadbeef"
        assert tracer.ring.trace("deadbeefdeadbeef")

    def test_fresh_trace_id_per_request(self, tracer, engine):
        img = np.random.default_rng(2).random((20, 20))
        r1 = engine.upscale_ex(img)
        r2 = engine.upscale_ex(img + 0.25)
        assert len(r1.trace_id) == 16
        assert r1.trace_id != r2.trace_id

    def test_cached_hit_is_traced_without_tiles(self, tracer):
        registry = ModelRegistry(seed=0)
        eng = InferenceEngine(
            registry, ModelKey(name="M3", scale=2),
            config=EngineConfig(workers=2, tile=16, cache_size=8),
        )
        try:
            img = np.random.default_rng(3).random((20, 20))
            eng.upscale_ex(img)
            result = eng.upscale_ex(img)
            assert result.cached
            spans = tracer.ring.trace(result.trace_id)
            (root,) = [s for s in spans if s.name == "serve.request"]
            assert root.attrs["cached"] is True
            assert not [s for s in spans if s.name == "serve.tile"]
        finally:
            eng.shutdown()


class TestTrainerTracing:
    def test_fit_epoch_step_phase_tree(self, tracer):
        from repro.core import SESR
        from repro.datasets import PatchSampler, SyntheticDataset
        from repro.train import Trainer

        ds = SyntheticDataset("div2k", n_images=2, size=(48, 48), scale=2,
                              seed=0)
        sampler = PatchSampler(ds, scale=2, patch_size=8, crops_per_image=2,
                               batch_size=2, seed=0)
        model = SESR.from_name("M3", scale=2, seed=0)
        result = Trainer(model, lr=1e-3).fit(sampler, epochs=2)

        spans = tracer.ring.spans()
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        (fit,) = by_name["train.fit"]
        assert fit.attrs["epochs"] == 2
        assert fit.attrs["steps"] == result.steps
        assert len(by_name["train.epoch"]) == 2
        assert len(by_name["train.step"]) == result.steps
        for phase in ("train.forward", "train.backward", "train.optim"):
            assert len(by_name[phase]) == result.steps

        by_id = {s.span_id: s for s in spans}
        for step in by_name["train.step"]:
            assert by_id[step.parent_id].name == "train.epoch"
            assert "loss" in step.attrs
        for epoch in by_name["train.epoch"]:
            assert by_id[epoch.parent_id].name == "train.fit"
        for fwd in by_name["train.forward"]:
            assert by_id[fwd.parent_id].name == "train.step"
        # Everything shares the fit span's trace.
        assert {s.trace_id for s in spans} == {fit.trace_id}

    def test_guarded_step_records_verdict(self, tracer):
        from repro.core import SESR
        from repro.train import Trainer

        model = SESR.from_name("M3", scale=2, seed=0)
        trainer = Trainer(model, lr=1e-3)
        rng = np.random.default_rng(0)
        lr_b = rng.random((2, 8, 8, 1))
        hr_b = rng.random((2, 16, 16, 1))
        trainer.train_step(lr_b, hr_b)
        (step,) = [s for s in tracer.ring.spans() if s.name == "train.step"]
        assert step.attrs["verdict"] == "ok"
        assert step.attrs["batch"] == 2
