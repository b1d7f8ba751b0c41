"""IR construction, validation, shape inference, and the LayerSpec bridge.

The exporter tests are the single-source-of-truth guarantee: the graphs
the compiler executes must describe exactly the layers the analytic
``sesr_specs``/``fsrcnn_specs`` formulas count (same names, same fields),
so ``repro.metrics``, ``repro.hw``, and the executor can never drift.
"""

import numpy as np
import pytest

from repro.compile import (
    Graph,
    IRError,
    Node,
    fsrcnn_ir,
    receptive_radius,
    sesr_ir,
    to_layer_specs,
)
from repro.deploy.tiled import receptive_radius as eager_receptive_radius
from repro.metrics.complexity import count_macs, fsrcnn_specs, sesr_specs


SESR_CONFIGS = [
    dict(f=16, m=3, scale=2),
    dict(f=16, m=5, scale=2),
    dict(f=16, m=5, scale=4),
    dict(f=16, m=7, scale=2),
    dict(f=16, m=11, scale=4),
    dict(f=32, m=11, scale=2),
    dict(f=16, m=5, scale=2, input_residual=False, activation="relu"),
    dict(f=16, m=5, scale=2, feature_residual=False),
    dict(f=16, m=5, scale=4, two_stage_head=True),
]


class TestExporterMatchesAnalyticSpecs:
    @pytest.mark.parametrize("cfg", SESR_CONFIGS)
    def test_sesr_export_equals_sesr_specs(self, cfg):
        assert to_layer_specs(sesr_ir(**cfg)) == sesr_specs(**cfg)

    @pytest.mark.parametrize("scale", [2, 4])
    @pytest.mark.parametrize("activation", ["prelu", "relu"])
    def test_fsrcnn_export_equals_fsrcnn_specs(self, scale, activation):
        assert to_layer_specs(
            fsrcnn_ir(scale, d=20, s=8, m=2, activation=activation)
        ) == fsrcnn_specs(scale, d=20, s=8, m=2, activation=activation)

    @pytest.mark.parametrize("cfg", SESR_CONFIGS)
    def test_graph_macs_equal_spec_macs(self, cfg):
        g = sesr_ir(**cfg)
        assert g.macs(30, 26) == count_macs(sesr_specs(**cfg), 30, 26)

    def test_fsrcnn_macs_equal_spec_macs(self):
        g = fsrcnn_ir(2)
        assert g.macs(17, 23) == count_macs(fsrcnn_specs(2), 17, 23)

    def test_radius_matches_eager_convention(self):
        for cfg in SESR_CONFIGS:
            g = sesr_ir(**cfg)
            assert receptive_radius(g) == eager_receptive_radius(
                sesr_specs(**cfg)
            )
        assert receptive_radius(fsrcnn_ir(2)) == eager_receptive_radius(
            fsrcnn_specs(2)
        )


class TestShapeInference:
    def test_sesr_channels_and_res_scale(self):
        g = sesr_ir(16, 5, 4)
        assert g.nodes["first_5x5"].channels == 16
        assert g.nodes["last_5x5"].channels == 16  # 4² sub-pixel channels
        assert g.nodes["d2s_0"].channels == 4
        assert g.nodes["d2s_0"].res_scale == 2.0
        assert g.nodes["d2s_1"].channels == 1
        assert g.nodes["d2s_1"].res_scale == 4.0

    def test_deconv_res_scale_is_stride(self):
        g = fsrcnn_ir(4)
        assert g.nodes["deconv_9x9"].res_scale == 4.0
        assert g.nodes["deconv_9x9"].channels == 1

    def test_two_stage_head_requires_scale_4(self):
        with pytest.raises(ValueError):
            sesr_ir(16, 5, 2, two_stage_head=True)


class TestValidation:
    def _base(self) -> Graph:
        g = Graph("t")
        g.add_input("input", 4)
        return g

    def test_unknown_op_rejected(self):
        g = self._base()
        with pytest.raises(IRError, match="unknown op"):
            g.add(Node("x", "matmul", ["input"]))

    def test_duplicate_name_rejected(self):
        g = self._base()
        with pytest.raises(IRError, match="duplicate"):
            g.add(Node("input", "relu", ["input"]))

    def test_dangling_input_rejected(self):
        g = self._base()
        with pytest.raises(IRError, match="undefined input"):
            g.add(Node("r", "relu", ["nope"]))

    def test_missing_required_attr_rejected(self):
        g = self._base()
        with pytest.raises(IRError, match="missing attr"):
            g.add(Node("c", "conv", ["input"], {"kernel": (3, 3)}))

    def test_channel_mismatch_rejected(self):
        g = self._base()
        g.add(Node("c", "conv", ["input"],
                   {"kernel": (3, 3), "cin": 8, "cout": 8}))
        g.set_outputs(["c"])
        with pytest.raises(IRError, match="channels"):
            g.infer_shapes()

    def test_weight_shape_mismatch_rejected(self):
        g = self._base()
        g.add(Node("c", "conv", ["input"],
                   {"kernel": (3, 3), "cin": 4, "cout": 8,
                    "weight": np.zeros((3, 3, 4, 4), dtype=np.float32)}))
        g.set_outputs(["c"])
        with pytest.raises(IRError, match="weight shape"):
            g.infer_shapes()

    def test_d2s_divisibility_rejected(self):
        g = self._base()  # 4 channels, block 3 → 4 % 9 != 0
        g.add(Node("d", "depth_to_space", ["input"], {"block": 3}))
        g.set_outputs(["d"])
        with pytest.raises(IRError, match="divisible"):
            g.infer_shapes()

    def test_add_resolution_mismatch_rejected(self):
        g = self._base()
        g.add(Node("d", "depth_to_space", ["input"], {"block": 2}))
        # side operand has 1 channel (broadcastable) but 2x the resolution
        g.add(Node("a", "add", ["input", "d"]))
        g.set_outputs(["a"])
        with pytest.raises(IRError, match="resolution"):
            g.infer_shapes()

    def test_no_outputs_rejected(self):
        with pytest.raises(IRError, match="no outputs"):
            self._base().infer_shapes()

    def test_removing_an_output_is_an_error(self):
        g = self._base()
        g.add(Node("r", "relu", ["input"]))
        g.set_outputs(["r"])
        with pytest.raises(IRError, match="output"):
            g.remove("r")

    def test_out_of_order_definition_rejected(self):
        g = self._base()
        g.add(Node("r", "relu", ["input"]))
        g.set_outputs(["r"])
        # Force a non-topological ordering by rebuilding the node dict.
        g.nodes = {n: g.nodes[n] for n in ("r", "input")}
        with pytest.raises(IRError, match="topological"):
            g.infer_shapes()


class TestGraphSurgery:
    def test_copy_is_structurally_independent(self):
        g = sesr_ir(16, 3, 2)
        c = g.copy()
        c.nodes["first_5x5"].epilogues.append(("relu", "x"))
        c.nodes["first_5x5"].inputs.append("input")
        assert g.nodes["first_5x5"].epilogues == []
        assert g.nodes["first_5x5"].inputs == ["input"]

    def test_replace_uses_rewrites_consumers_and_outputs(self):
        g = Graph("t")
        g.add_input("input", 4)
        g.add(Node("a", "relu", ["input"]))
        g.add(Node("b", "relu", ["a"]))
        g.set_outputs(["a"])
        g.replace_uses("a", "input")
        assert g.nodes["b"].inputs == ["input"]
        assert g.outputs == ["input"]

    def test_pretty_mentions_every_node(self):
        g = sesr_ir(16, 3, 2)
        text = g.pretty()
        for name in g.nodes:
            assert f"%{name}" in text
