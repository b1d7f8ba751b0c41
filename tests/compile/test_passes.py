"""Optimisation passes: bit-exactness and structure."""

import numpy as np

from tests.compile.conftest import eager_out
from repro.compile import (
    CompiledModel,
    DEFAULT_PASSES,
    Graph,
    Node,
    PassManager,
    capture,
    eliminate_dead_nodes,
    fold_constants,
    fuse_conv_activation,
    fuse_residual_add,
    to_layer_specs,
)
from repro.core import SESR
from repro.core.carn import CARN_M
from repro.deploy.quantize import quantize_sesr


def _collapsed(name="M5", scale=2):
    return SESR.from_name(name, scale=scale, expansion=16).collapse()


class TestDefaultPipeline:
    def test_optimised_graph_is_bit_identical(self, nhwc):
        model = _collapsed()
        x = nhwc()
        raw = capture(model)
        opt, _ = PassManager().run(raw)
        got_raw = CompiledModel(raw.copy()).run(x)
        got_opt = CompiledModel(opt).run(x)
        ref = eager_out(model, x)
        assert np.array_equal(got_raw, ref)
        assert np.array_equal(got_opt, ref)

    def test_sesr_collapses_to_conv_chain(self):
        opt, _ = PassManager().run(capture(_collapsed()))
        kinds = {n.op for n in opt.nodes.values()}
        assert kinds == {"input", "conv", "depth_to_space"}
        # Both long residuals fused into conv epilogues (Fig. 2(d) adds).
        adds = [e for n in opt.nodes.values()
                for e in n.epilogues if e[0] == "add"]
        assert len(adds) == 2

    def test_carn_act_of_add_needs_the_second_act_sweep(self):
        # relu(h + x) only becomes fusible once the add folds — the reason
        # DEFAULT_PASSES runs fuse_conv_activation twice.
        model = CARN_M(scale=2, width=16, groups=4, blocks=2, depth=2)
        g = capture(model)
        first = fuse_conv_activation(g)
        g.infer_shapes()
        fuse_residual_add(g)
        g.infer_shapes()
        second = fuse_conv_activation(g)
        g.infer_shapes()
        assert first > 0 and second > 0

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
        by_name = {}
        for e in log:
            by_name.setdefault(e.name, e)
        assert by_name["fuse_conv_activation"].changes > 0
        assert by_name["fuse_residual_add"].changes == 2


class TestFoldConstants:
    def test_int8_weight_dequant_is_folded_bit_exactly(self, nhwc):
        model = quantize_sesr(_collapsed())
        x = nhwc()
        g = capture(model)
        assert any(
            n.op == "conv" and n.attrs.get("weight") is None
            for n in g.nodes.values()
        )
        folded = g.copy()
        assert fold_constants(folded) > 0
        assert all(
            n.attrs.get("weight") is not None
            for n in folded.nodes.values() if n.op == "conv"
        )
        ref = eager_out(model, x)
        assert np.array_equal(CompiledModel(folded).run(x), ref)

    def test_all_const_subgraph_is_evaluated(self):
        g = Graph("t")
        g.add_input("input", 1)
        value = np.array([[[[-1.0]], [[2.0]]]], dtype=np.float32)
        g.add(Node("c", "const", [], {"value": value}))
        g.add(Node("r", "relu", ["c"]))
        g.add(Node("a", "add", ["input", "r"]))
        g.set_outputs(["a"])
        g.infer_shapes()
        # 'a' depends on the input, so only 'r' folds.
        assert fold_constants(g) == 1
        assert g.nodes["r"].op == "const"
        np.testing.assert_array_equal(
            g.nodes["r"].attrs["value"], np.maximum(value, 0.0)
        )


class TestDeadNodeElimination:
    def test_unreachable_branch_is_removed_inputs_kept(self):
        g = sesr_like = capture(_collapsed("M3"))
        g.add(Node("orphan", "relu", ["first_5x5"]))
        g.infer_shapes()
        assert eliminate_dead_nodes(g) == 1
        assert "orphan" not in g.nodes
        assert sesr_like.inputs == ["input"]
