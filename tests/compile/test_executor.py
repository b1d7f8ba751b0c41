"""CompiledModel: bit-identity vs eager, threading, arenas, instrumentation."""

import threading

import numpy as np
import pytest

from tests.compile.conftest import eager_out
from repro.compile import CaptureError, CompiledModel, capture, compile_model
from repro.core import FSRCNN, SESR
from repro.core.carn import CARN_M
from repro.deploy import quantize_sesr, receptive_radius, tiled_upscale
from repro.nn import Tensor
from repro.obs import Profiler, profile
from repro.train import predict_image


def _collapsed(name="M5", scale=2):
    return SESR.from_name(name, scale=scale, expansion=16).collapse()


class TestBitIdentity:
    @pytest.mark.parametrize("name,scale", [
        ("M3", 2), ("M5", 2), ("M5", 4), ("M7", 2), ("M11", 4), ("XL", 2),
    ])
    def test_sesr_zoo_matrix(self, name, scale, nhwc):
        model = _collapsed(name, scale)
        x = nhwc()
        assert np.array_equal(compile_model(model).run(x),
                              eager_out(model, x))

    def test_fsrcnn(self, nhwc):
        model = FSRCNN(scale=2, d=20, s=8, m=2)
        x = nhwc()
        assert np.array_equal(compile_model(model).run(x),
                              eager_out(model, x))

    def test_int8_weights_only(self, nhwc):
        model = quantize_sesr(_collapsed())
        x = nhwc()
        assert np.array_equal(compile_model(model).run(x),
                              eager_out(model, x))

    def test_int8_capture_binds_the_eager_dequantized_weight(self):
        # Capture dequantizes each int8 weight once, with the call the
        # eager QuantizedConv2d makes on every forward: same bits.
        model = quantize_sesr(_collapsed())
        g = capture(model)
        layers = {"first_5x5": model.first, "last_5x5": model.last}
        layers.update(
            {f"conv3x3_{i}": conv for i, conv in enumerate(model.convs)}
        )
        for name, layer in layers.items():
            bound = g.nodes[name].attrs["weight"]
            eager = layer.weight_params.dequantize(layer.weight_q)
            assert bound.dtype == eager.dtype == np.float32
            assert np.array_equal(bound, eager), name

    def test_batched_input(self, nhwc):
        model = _collapsed("M3")
        x = nhwc(n=3)
        assert np.array_equal(compile_model(model).run(x),
                              eager_out(model, x))

    def test_forward_takes_and_returns_tensors(self, nhwc):
        model = _collapsed("M3")
        x = nhwc()
        out = compile_model(model)(Tensor(x))
        assert isinstance(out, Tensor)
        assert np.array_equal(out.data, eager_out(model, x))


class TestArenaManagement:
    def test_shape_changes_do_not_pollute_each_other(self, nhwc):
        model = _collapsed("M3")
        compiled = compile_model(model)
        xa, xb = nhwc(h=20, w=20, seed=1), nhwc(h=12, w=28, seed=2)
        ra = eager_out(model, xa)
        rb = eager_out(model, xb)
        assert np.array_equal(compiled.run(xa), ra)
        assert np.array_equal(compiled.run(xb), rb)
        assert np.array_equal(compiled.run(xa), ra)  # back to shape A

    def test_output_is_fresh_per_call(self, nhwc):
        compiled = compile_model(_collapsed("M3"))
        x = nhwc()
        first = compiled.run(x)
        snapshot = first.copy()
        compiled.run(nhwc(seed=9))
        assert np.array_equal(first, snapshot)  # second run didn't alias it

    def test_concurrent_threads_agree_with_eager(self, nhwc):
        model = _collapsed("M3")
        compiled = compile_model(model)
        inputs = [nhwc(seed=s) for s in range(8)]
        refs = [eager_out(model, x) for x in inputs]
        results = [None] * len(inputs)
        errors = []

        def worker(lo):
            try:
                for i in range(lo, len(inputs), 4):
                    results[i] = compiled.run(inputs[i])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for got, ref in zip(results, refs):
            assert np.array_equal(got, ref)
        assert compiled.runs == len(inputs)

    def test_memory_stats_planned_strictly_below_naive(self):
        compiled = compile_model(_collapsed())
        stats = compiled.memory_stats(24, 20)
        assert stats["arena_bytes"] < stats["naive_bytes"]
        assert stats["arena_bytes"] >= stats["lower_bound_bytes"]
        assert stats["slots"] == len(compiled.plan.slot_units)


class TestInstrumentation:
    def test_profiler_sees_the_analytic_macs(self, nhwc):
        compiled = compile_model(_collapsed())
        x = nhwc(h=16, w=16)
        prof = Profiler()
        with profile(prof):
            compiled.run(x)
        assert prof.total_macs() == compiled.graph.macs(16, 16)
        ops = set(prof.summary())
        assert {"conv2d", "im2col"} <= ops

    def test_runs_counter(self, nhwc):
        compiled = compile_model(_collapsed("M3"))
        assert compiled.runs == 0
        compiled.run(nhwc())
        compiled.run(nhwc())
        assert compiled.runs == 2


class TestDeployIntegration:
    def test_predict_image_matches_eager(self):
        model = _collapsed("M3")
        compiled = compile_model(model)
        rng = np.random.default_rng(3)
        img = rng.random((21, 17)).astype(np.float32)
        assert np.array_equal(predict_image(compiled, img),
                              predict_image(model, img))

    def test_receptive_radius_fast_path(self):
        model = _collapsed("M5")
        compiled = compile_model(model)
        assert receptive_radius(compiled) == receptive_radius(model)

    def test_tiled_upscale_matches_full_frame(self):
        # Same tolerance as the eager tiled test: per-tile GEMM shapes
        # differ from the full-frame ones, so BLAS may drift a ulp.
        compiled = compile_model(_collapsed("M3"))
        rng = np.random.default_rng(4)
        img = rng.random((30, 26)).astype(np.float32)
        full = predict_image(compiled, img)
        tiled = tiled_upscale(compiled, img, 2, tile=(11, 9))
        np.testing.assert_allclose(tiled, full, atol=1e-6)

    def test_tiled_upscale_compiled_matches_tiled_eager_bitwise(self):
        # Tile-by-tile, though, compiled == eager exactly: same patches,
        # same GEMM shapes, bit-identical kernels.
        model = _collapsed("M3")
        compiled = compile_model(model)
        rng = np.random.default_rng(4)
        img = rng.random((30, 26)).astype(np.float32)
        assert np.array_equal(
            tiled_upscale(compiled, img, 2, tile=(11, 9)),
            tiled_upscale(model, img, 2, tile=(11, 9)),
        )


class TestValidation:
    def test_multiple_outputs_rejected(self):
        g = capture(_collapsed("M3"))
        g.set_outputs([g.outputs[0], "first_5x5"])
        with pytest.raises(ValueError, match="one input and one output"):
            CompiledModel(g)

    def test_wrong_channel_count_rejected(self, nhwc):
        compiled = compile_model(_collapsed("M3"))
        with pytest.raises(ValueError, match="channels"):
            compiled.run(nhwc(c=3))

    def test_non_nhwc_rejected(self):
        compiled = compile_model(_collapsed("M3"))
        with pytest.raises(ValueError, match="NHWC"):
            compiled.run(np.zeros((8, 8), dtype=np.float32))

    def test_uncollapsed_sesr_raises_capture_error(self):
        with pytest.raises(CaptureError, match="collapse"):
            compile_model(SESR.from_name("M3", scale=2, expansion=16))

    def test_carn_m_raises_capture_error(self):
        # No deploy path builds CARN-M (it has no zoo factory).
        model = CARN_M(scale=2, width=16, groups=4, blocks=2, depth=2)
        with pytest.raises(CaptureError, match="CARN_M"):
            compile_model(model)

    def test_int8_activation_fake_quant_raises_capture_error(self):
        # to_deployable quantizes weights only; activation observers come
        # only from calibration images, which no deploy path passes.
        rng = np.random.default_rng(5)
        calib = [rng.random((12, 12)).astype(np.float32) for _ in range(2)]
        model = quantize_sesr(_collapsed(), calib_images=calib)
        with pytest.raises(CaptureError, match="fake-quant"):
            compile_model(model)

    def test_unfused_graph_is_rejected_naming_the_node(self):
        g = capture(_collapsed("M3"))  # prelu and add nodes not yet fused
        with pytest.raises(ValueError, match="prelu node 'prelu_first'"):
            CompiledModel(g)

    def test_float64_input_is_cast(self, nhwc):
        compiled = compile_model(_collapsed("M3"))
        x = nhwc().astype(np.float64)
        out = compiled.run(x)
        assert out.dtype == np.float32
