"""Graph optimisation passes and the pass manager.

Every pass is a plain function ``pass_fn(graph) -> int`` mutating the graph
in place and returning how many rewrites it made.  The
:class:`PassManager` runs a pipeline over a *copy* of the input graph,
re-validates shapes after every pass, and returns a per-pass log
(:class:`PassEntry`) that ``repro compile`` prints.

The default pipeline is **bit-exact**: executing the optimised graph
produces byte-for-byte the arrays the eager model produces (pinned by
``tests/compile/test_passes.py``).  That works because fusion only changes
*where* an op runs (as a conv epilogue, in place on the conv's output
buffer), never the float operations themselves:

* :func:`fold_constants` — precompute weight dequantization for int8 convs
  (``QuantParams.dequantize`` is deterministic, so folding it is exact) and
  evaluate any op whose inputs are all constants;
* :func:`fuse_conv_activation` — fold a relu/prelu/quant whose only
  consumer reads a conv straight into that conv's epilogue list;
* :func:`fuse_residual_add` — fold a residual add into the epilogue of the
  conv producing its main operand (the paper's two long residuals both
  fuse, leaving SESR as a pure conv chain);
* :func:`eliminate_dead_nodes` — drop nodes that cannot reach an output.

Algorithm 2 and int8 quantization are not passes: the compiler captures
a model that :func:`repro.deploy.to_deployable` already collapsed (and
quantized), so each has one implementation, in :mod:`repro.core.collapse`
and :mod:`repro.deploy.quantize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ir import Graph, Node

PassFn = Callable[[Graph], int]


@dataclass(frozen=True)
class PassEntry:
    """One pipeline step of a :meth:`PassManager.run`."""

    name: str
    changes: int
    nodes_before: int
    nodes_after: int


class PassManager:
    """Runs a pass pipeline over a copy of the graph."""

    def __init__(self, passes: Optional[Sequence[PassFn]] = None) -> None:
        self.passes: Tuple[PassFn, ...] = tuple(
            DEFAULT_PASSES if passes is None else passes
        )

    def run(self, graph: Graph) -> Tuple[Graph, List[PassEntry]]:
        g = graph.copy().infer_shapes()
        log: List[PassEntry] = []
        for pass_fn in self.passes:
            before = len(g.nodes)
            changes = pass_fn(g)
            g.infer_shapes()
            log.append(PassEntry(
                getattr(pass_fn, "__name__", str(pass_fn)),
                changes, before, len(g.nodes),
            ))
        return g, log


# ---------------------------------------------------------------------- #
# default (bit-exact) passes
# ---------------------------------------------------------------------- #
def fold_constants(graph: Graph) -> int:
    """Precompute everything that does not depend on graph inputs.

    Two cases: int8 convs carrying ``weight_q`` get their float weight
    dequantized once instead of per forward call (the eager
    ``QuantizedConv2d`` dequantizes every time), and any node whose inputs
    are all ``const`` is evaluated to a ``const``.
    """
    changes = 0
    for node in graph.nodes.values():
        if (
            node.op in ("conv", "deconv")
            and node.attrs.get("weight") is None
            and node.attrs.get("weight_q") is not None
        ):
            params = node.attrs["weight_params"]
            node.attrs["weight"] = params.dequantize(node.attrs["weight_q"])
            changes += 1
    for node in list(graph.nodes.values()):
        if node.op not in ("relu", "prelu", "add", "concat",
                           "depth_to_space", "quant"):
            continue
        srcs = [graph.nodes[i] for i in node.inputs]
        if not srcs or any(s.op != "const" for s in srcs):
            continue
        value = _eval_const(node, [s.attrs["value"] for s in srcs])
        node.op = "const"
        node.inputs = []
        node.attrs = {"value": value, "res_scale": node.res_scale}
        node.epilogues = []
        changes += 1
    return changes


def _eval_const(node: Node, values: List[np.ndarray]) -> np.ndarray:
    if node.op == "relu":
        return np.maximum(values[0], 0.0)
    if node.op == "prelu":
        alpha = node.attrs["alpha"]
        return np.maximum(values[0], 0.0) + alpha * np.minimum(values[0], 0.0)
    if node.op == "add":
        return values[0] + values[1]
    if node.op == "concat":
        return np.concatenate(values, axis=3)
    if node.op == "quant":
        return node.attrs["params"].fake_quant(values[0])
    # depth_to_space — same reshape/transpose as repro.nn.ops.
    v = values[0]
    n, h, w, c = v.shape
    r = int(node.attrs["block"])
    out = v.reshape(n, h, w, r, r, c // (r * r))
    return out.transpose(0, 1, 3, 2, 4, 5).reshape(
        n, h * r, w * r, c // (r * r)
    )


def _fusible_conv(graph: Graph, consumers: Dict[str, List[str]],
                  name: str, into: str) -> bool:
    """Can ``name``'s op be folded into conv ``into``'s epilogue list?"""
    node = graph.nodes.get(into)
    return (
        node is not None
        and node.op == "conv"
        and consumers[into] == [name]
        and into not in graph.outputs
    )


def fuse_conv_activation(graph: Graph) -> int:
    """Fold relu/prelu/quant nodes into their producing conv's epilogue.

    Processing in topo order lets chains collapse in one sweep: after a
    conv's fake-quant is folded, the activation now reads the conv and
    folds next, preserving apply order (quant before act — exactly the
    eager ``QuantizedConv2d`` + activation sequence).
    """
    changes = 0
    for name in list(graph.nodes):
        node = graph.nodes.get(name)
        if node is None or node.op not in ("relu", "prelu", "quant"):
            continue
        if node.op == "prelu" and "alpha" not in node.attrs:
            continue
        if node.op == "quant" and "params" not in node.attrs:
            continue
        consumers = graph.consumers()
        conv_name = node.inputs[0]
        if not _fusible_conv(graph, consumers, name, conv_name):
            continue
        conv = graph.nodes[conv_name]
        if node.op == "relu":
            conv.epilogues.append(("relu", name))
        elif node.op == "prelu":
            conv.epilogues.append(("prelu", node.attrs["alpha"], name))
        else:
            conv.epilogues.append(("quant", node.attrs["params"], name))
        graph.replace_uses(name, conv_name)
        graph.remove(name)
        changes += 1
    return changes


def fuse_residual_add(graph: Graph) -> int:
    """Fold a residual add into the conv producing its main operand.

    The conv gains an extra input (the skip operand) and an ``("add", idx,
    name)`` epilogue — executed as an in-place ``+=`` on the conv's output
    buffer.  Requires the skip operand to be defined *before* the conv
    (true for every residual in SESR/CARN) so execution order is unchanged.
    """
    changes = 0
    order = {name: i for i, name in enumerate(graph.nodes)}
    for name in list(graph.nodes):
        node = graph.nodes.get(name)
        if node is None or node.op != "add":
            continue
        consumers = graph.consumers()
        for conv_name, other in (
            (node.inputs[0], node.inputs[1]),
            (node.inputs[1], node.inputs[0]),
        ):
            if not _fusible_conv(graph, consumers, name, conv_name):
                continue
            if order[other] > order[conv_name]:
                continue
            conv = graph.nodes[conv_name]
            conv.inputs.append(other)
            conv.epilogues.append(("add", len(conv.inputs) - 1, name))
            graph.replace_uses(name, conv_name)
            graph.remove(name)
            changes += 1
            break
    return changes


def eliminate_dead_nodes(graph: Graph) -> int:
    """Remove nodes with no path to an output (graph inputs are kept)."""
    live = set(graph.outputs)
    for node in reversed(list(graph.nodes.values())):
        if node.name in live:
            live.update(node.inputs)
    dead = [
        name for name, node in graph.nodes.items()
        if name not in live and node.op != "input"
    ]
    for name in dead:
        graph.remove(name)
    return len(dead)


# fuse_conv_activation runs twice: the second sweep catches activations
# that only become fusible once a residual add folds away (CARN's
# act(h + x) pattern — the relu reads the add, not the conv, until then).
DEFAULT_PASSES: Tuple[PassFn, ...] = (
    fold_constants,
    fuse_conv_activation,
    fuse_residual_add,
    fuse_conv_activation,
    eliminate_dead_nodes,
)
