"""Capture a deployable inference model into the compiler IR.

The substrate's ops build autograd closures eagerly and quantized layers
re-wrap arrays mid-forward, so op-level tracing cannot recover a clean
graph.  Capture is therefore *structural*: each supported family has a
builder that emits the weightless graph its ``forward`` computes —
:func:`sesr_ir` and :func:`fsrcnn_ir` mirror ``sesr_specs``/``fsrcnn_specs``
node-for-node (same names, pinned by tests) — and :func:`capture` binds the
model's weights onto it.  Mirroring ``forward`` exactly is what makes the
compiled executor's bit-identity guarantee checkable: the graph *is* the
eager dataflow, just reified.

Supported are the models :func:`repro.deploy.to_deployable` returns:
:class:`~repro.core.sesr.CollapsedSESR`, its weights-only int8 form
:class:`~repro.deploy.quantize.QuantizedSESR` (the int8 weights are
dequantized once, here, with the call the eager layer makes on every
forward), and :class:`~repro.core.fsrcnn.FSRCNN`.  Anything else — an
*uncollapsed* :class:`~repro.core.sesr.SESR` (collapse it first,
Algorithms 1–2), a ``QuantizedSESR`` calibrated with activation
fake-quant, or another architecture — raises :class:`CaptureError`.
"""

from __future__ import annotations

from ..nn import PReLU
from .ir import Graph, Node


class CaptureError(TypeError):
    """The model is not one the deploy path produces, so it cannot compile."""


# ---------------------------------------------------------------------- #
# weightless structure builders (shared with repro.hw / repro.metrics)
# ---------------------------------------------------------------------- #
def sesr_ir(
    f: int,
    m: int,
    scale: int,
    input_residual: bool = True,
    feature_residual: bool = True,
    activation: str = "prelu",
    two_stage_head: bool = False,
) -> Graph:
    """Collapsed-SESR inference graph (Fig. 2(d)), weights unbound.

    Node names match :func:`repro.metrics.complexity.sesr_specs` exactly,
    so ``to_layer_specs(sesr_ir(...)) == sesr_specs(...)``.
    """
    if two_stage_head and scale != 4:
        raise ValueError("two_stage_head applies to scale 4 only")
    act = activation
    g = Graph(f"sesr_f{f}m{m}x{scale}")
    g.add_input("input", 1)
    g.add(Node("first_5x5", "conv", ["input"],
               {"kernel": (5, 5), "cin": 1, "cout": f}))
    first_act = g.add(Node(f"{act}_first", act, ["first_5x5"]))
    h = first_act
    for i in range(m):
        g.add(Node(f"conv3x3_{i}", "conv", [h],
                   {"kernel": (3, 3), "cin": f, "cout": f}))
        h = g.add(Node(f"{act}_{i}", act, [f"conv3x3_{i}"]))
    if feature_residual:
        h = g.add(Node("long_blue_residual", "add", [h, first_act]))
    if two_stage_head:
        g.add(Node("up1_5x5", "conv", [h],
                   {"kernel": (5, 5), "cin": f, "cout": 4 * f}))
        g.add(Node(f"{act}_up1", act, ["up1_5x5"]))
        g.add(Node("d2s_0", "depth_to_space", [f"{act}_up1"], {"block": 2}))
        g.add(Node("up2_5x5", "conv", ["d2s_0"],
                   {"kernel": (5, 5), "cin": f, "cout": 4}))
        h = g.add(Node("d2s_1", "depth_to_space", ["up2_5x5"], {"block": 2}))
    else:
        s2 = scale * scale
        h = g.add(Node("last_5x5", "conv", [h],
                       {"kernel": (5, 5), "cin": f, "cout": s2}))
        if input_residual:
            h = g.add(Node("long_black_residual", "add", [h, "input"]))
        for step in range(scale // 2):
            h = g.add(Node(f"d2s_{step}", "depth_to_space", [h], {"block": 2}))
    g.set_outputs([h])
    return g.infer_shapes()


def fsrcnn_ir(
    scale: int, d: int = 56, s: int = 12, m: int = 4,
    activation: str = "prelu",
) -> Graph:
    """FSRCNN(d, s, m) inference graph, weights unbound.

    Node names match :func:`repro.metrics.complexity.fsrcnn_specs`.
    """
    act = activation
    g = Graph(f"fsrcnn_d{d}s{s}m{m}x{scale}")
    g.add_input("input", 1)
    g.add(Node("feature_5x5", "conv", ["input"],
               {"kernel": (5, 5), "cin": 1, "cout": d}))
    g.add(Node(f"{act}_feature", act, ["feature_5x5"]))
    g.add(Node("shrink_1x1", "conv", [f"{act}_feature"],
               {"kernel": (1, 1), "cin": d, "cout": s}))
    h = g.add(Node(f"{act}_shrink", act, ["shrink_1x1"]))
    for i in range(m):
        g.add(Node(f"map3x3_{i}", "conv", [h],
                   {"kernel": (3, 3), "cin": s, "cout": s}))
        h = g.add(Node(f"{act}_map{i}", act, [f"map3x3_{i}"]))
    g.add(Node("expand_1x1", "conv", [h],
               {"kernel": (1, 1), "cin": s, "cout": d}))
    g.add(Node(f"{act}_expand", act, ["expand_1x1"]))
    g.add(Node("deconv_9x9", "deconv", [f"{act}_expand"],
               {"kernel": (9, 9), "cin": d, "cout": 1, "stride": scale}))
    g.set_outputs(["deconv_9x9"])
    return g.infer_shapes()


# ---------------------------------------------------------------------- #
# weight binding
# ---------------------------------------------------------------------- #
def _bind_conv(g: Graph, name: str, layer) -> None:
    """Bind a live :class:`repro.nn.Conv2d` (padding must be the stride-1
    'same' every supported model uses; shapes are checked by
    :meth:`Graph.infer_shapes`)."""
    if layer.stride != 1 or layer.padding != "same":
        raise CaptureError(
            f"unsupported conv config stride={layer.stride} "
            f"padding={layer.padding!r}"
        )
    g.nodes[name].attrs.update({
        "weight": layer.weight.data,
        "bias": None if layer.bias is None else layer.bias.data,
    })


def _bind_qconv(g: Graph, name: str, layer) -> None:
    """Bind a weights-only :class:`~repro.deploy.quantize.QuantizedConv2d`.

    The float weight is ``weight_params.dequantize(weight_q)``, the call
    ``QuantizedConv2d.forward`` makes on every forward; it is
    deterministic, so making it once here is bit-exact.
    """
    if layer.padding != "same":
        raise CaptureError(f"unsupported padding {layer.padding!r}")
    if layer.act_params is not None:
        raise CaptureError(
            f"cannot capture activation fake-quant (layer {name!r}); "
            f"the deploy path quantizes weights only"
        )
    g.nodes[name].attrs.update({
        "weight": layer.weight_params.dequantize(layer.weight_q),
        "bias": layer.bias,
    })


def _bind_act(g: Graph, name: str, layer) -> None:
    if isinstance(layer, PReLU):
        g.nodes[name].attrs["alpha"] = layer.alpha.data


def capture(model) -> Graph:
    """Build the bound inference graph for a supported model.

    Raises :class:`CaptureError` for anything else (including uncollapsed
    :class:`~repro.core.sesr.SESR` — collapse before compiling).
    """
    from ..core.fsrcnn import FSRCNN
    from ..core.sesr import CollapsedSESR
    from ..deploy.quantize import QuantizedSESR

    if isinstance(model, CollapsedSESR):
        return _capture_sesr(model)
    if isinstance(model, QuantizedSESR):
        return _capture_qsesr(model)
    if isinstance(model, FSRCNN):
        return _capture_fsrcnn(model)
    raise CaptureError(
        f"cannot capture {type(model).__name__}; supported: CollapsedSESR, "
        f"weights-only QuantizedSESR, FSRCNN (collapse SESR models first)"
    )


def _capture_sesr(model) -> Graph:
    act = model.activation
    g = sesr_ir(
        model.f, model.m, model.scale,
        input_residual=model.input_residual,
        feature_residual=model.feature_residual,
        activation=act,
        two_stage_head=model.two_stage_head,
    )
    _bind_conv(g, "first_5x5", model.first)
    _bind_act(g, f"{act}_first", model.act_first)
    for i, (conv, a) in enumerate(zip(model.convs, model.acts)):
        _bind_conv(g, f"conv3x3_{i}", conv)
        _bind_act(g, f"{act}_{i}", a)
    if model.two_stage_head:
        _bind_conv(g, "up1_5x5", model.last)
        _bind_act(g, f"{act}_up1", model.act_last)
        _bind_conv(g, "up2_5x5", model.last2)
    else:
        _bind_conv(g, "last_5x5", model.last)
    return g.infer_shapes()


def _capture_qsesr(model) -> Graph:
    act = "prelu" if isinstance(model.act_first, PReLU) else "relu"
    f = model.first.out_channels
    g = sesr_ir(
        f, len(model.convs), model.scale,
        input_residual=model.input_residual,
        feature_residual=model.feature_residual,
        activation=act,
    )
    _bind_qconv(g, "first_5x5", model.first)
    _bind_act(g, f"{act}_first", model.act_first)
    for i, (conv, a) in enumerate(zip(model.convs, model.acts)):
        _bind_qconv(g, f"conv3x3_{i}", conv)
        _bind_act(g, f"{act}_{i}", a)
    _bind_qconv(g, "last_5x5", model.last)
    return g.infer_shapes()


def _capture_fsrcnn(model) -> Graph:
    act = model.activation
    g = fsrcnn_ir(model.scale, model.d, model.s, model.m, activation=act)
    _bind_conv(g, "feature_5x5", model.feature)
    _bind_act(g, f"{act}_feature", model.act_feature)
    _bind_conv(g, "shrink_1x1", model.shrink)
    _bind_act(g, f"{act}_shrink", model.act_shrink)
    for i, (conv, a) in enumerate(zip(model.mapping, model.map_acts)):
        _bind_conv(g, f"map3x3_{i}", conv)
        _bind_act(g, f"{act}_map{i}", a)
    _bind_conv(g, "expand_1x1", model.expand)
    _bind_act(g, f"{act}_expand", model.act_expand)
    deconv = model.deconv
    g.nodes["deconv_9x9"].attrs.update({
        "weight": deconv.weight.data,
        "bias": None if deconv.bias is None else deconv.bias.data,
    })
    return g.infer_shapes()

