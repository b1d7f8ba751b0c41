"""Plan cache in the registry, compiled-by-default engine, and the CLI."""

import threading

import numpy as np

from repro.cli import main
from repro.compile import CompiledModel
from repro.datasets import load_image, save_image
from repro.deploy import load
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
)
from repro.train import predict_image

KEY = ModelKey(name="M3", scale=2)


class TestRegistryPlanCache:
    def test_get_compiled_memoizes(self):
        registry = ModelRegistry()
        first = registry.get_compiled(KEY)
        assert isinstance(first, CompiledModel)
        assert registry.get_compiled(KEY) is first
        assert registry.compile_count(KEY) == 1

    def test_concurrent_first_requests_compile_once(self):
        registry = ModelRegistry()
        results, errors = [], []

        def fetch():
            try:
                results.append(registry.get_compiled(KEY))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len({id(r) for r in results}) == 1
        assert registry.compile_count(KEY) == 1

    def test_evict_drops_the_plan_too(self):
        registry = ModelRegistry()
        first = registry.get_compiled(KEY)
        assert registry.evict(KEY)
        assert registry.get_compiled(KEY) is not first
        assert registry.compile_count(KEY) == 2

    def test_stats_report_plans(self):
        registry = ModelRegistry()
        registry.get_compiled(KEY)
        stats = registry.stats()
        assert stats["plans_compiled"] == 1
        assert stats["compiles"] == {"M3:x2:fp32": 1}

    def test_int8_key_compiles_the_quantized_net(self):
        registry = ModelRegistry()
        compiled = registry.get_compiled(
            ModelKey(name="M3", scale=2, precision="int8")
        )
        assert isinstance(compiled, CompiledModel)


class TestEngineCompiledDefault:
    def test_engine_runs_the_compiled_plan_by_default(self):
        registry = ModelRegistry()
        engine = InferenceEngine(
            registry, KEY, config=EngineConfig(workers=2, tile=16),
        )
        try:
            assert isinstance(engine.model, CompiledModel)
            assert engine.model is registry.get_compiled(KEY)
            assert engine.stats()["config"]["halo"] == (
                engine.model.receptive_radius
            )
        finally:
            engine.shutdown()


class TestCompileCLI:
    def test_prints_pass_log_and_plan_stats(self, capsys):
        assert main(["compile", "--model", "M5", "--scale", "2",
                     "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "fuse_conv_activation" in out
        assert "planned peak" in out and "naive peak" in out
        assert "receptive radius" in out

    def test_dump_ir(self, capsys):
        assert main(["compile", "--model", "M3", "--dump-ir"]) == 0
        out = capsys.readouterr().out
        assert "graph sesr_f16m3x2" in out
        assert "%first_5x5" in out

    def test_int8_requires_sesr(self, capsys):
        assert main(["compile", "--model", "FSRCNN",
                     "--precision", "int8"]) == 2
        assert "requires a SESR model" in capsys.readouterr().err

    def test_upscale_matches_the_eager_collapsed_model(self, tmp_path,
                                                       capsys):
        rng = np.random.default_rng(2)
        src = tmp_path / "in.pgm"
        save_image(str(src), rng.random((20, 24)).astype(np.float32))
        out_c = tmp_path / "c.pgm"
        out_e = tmp_path / "e.pgm"
        assert main(["upscale", "--model", "M3", "--input", str(src),
                     "--output", str(out_c)]) == 0
        # The oracle: the eager collapsed network on the same decoded
        # input, written through the same save_image.
        eager = load("M3", 2).collapse()
        save_image(str(out_e), predict_image(eager, load_image(str(src))))
        assert out_c.read_bytes() == out_e.read_bytes()
