"""Optimisation passes: bit-exactness and structure."""

import numpy as np

from tests.compile.conftest import eager_out
from repro.compile import (
    CompiledModel,
    DEFAULT_PASSES,
    PassManager,
    capture,
    to_layer_specs,
)
from repro.core import SESR


def _collapsed(name="M5", scale=2):
    return SESR.from_name(name, scale=scale, expansion=16).collapse()


class TestDefaultPipeline:
    def test_optimised_graph_is_bit_identical(self, nhwc):
        model = _collapsed()
        x = nhwc()
        opt, _ = PassManager().run(capture(model))
        assert np.array_equal(CompiledModel(opt).run(x), eager_out(model, x))

    def test_sesr_collapses_to_conv_chain(self):
        opt, _ = PassManager().run(capture(_collapsed()))
        kinds = {n.op for n in opt.nodes.values()}
        assert kinds == {"input", "conv", "depth_to_space"}
        # Both long residuals fused into conv epilogues (Fig. 2(d) adds).
        adds = [e for n in opt.nodes.values()
                for e in n.epilogues if e[0] == "add"]
        assert len(adds) == 2

    def test_export_is_invariant_under_fusion(self):
        raw = capture(_collapsed())
        opt, _ = PassManager().run(raw)
        assert to_layer_specs(opt) == to_layer_specs(raw)

    def test_pass_log_records_every_pipeline_step(self):
        _, log = PassManager().run(capture(_collapsed()))
        assert [e.name for e in log] == [
            p.__name__ for p in DEFAULT_PASSES
        ]
        assert all(e.nodes_after <= e.nodes_before for e in log)
        by_name = {e.name: e for e in log}
        assert by_name["fuse_conv_activation"].changes > 0
        assert by_name["fuse_residual_add"].changes == 2
