"""Graph fusion passes and the pass manager.

Every pass is a plain function ``pass_fn(graph) -> int`` mutating the graph
in place and returning how many rewrites it made.  The
:class:`PassManager` runs :data:`DEFAULT_PASSES` over a *copy* of the input
graph, re-validates shapes after every pass, and returns a per-pass log
(:class:`PassEntry`) that ``repro compile`` prints.

The pipeline is **bit-exact**: executing the fused graph produces
byte-for-byte the arrays the eager model produces (pinned by
``tests/compile/test_executor.py``).  That works because fusion only
changes *where* an op runs (as a conv epilogue, in place on the conv's
output buffer), never the float operations themselves:

* :func:`fuse_conv_activation` — fold a relu/prelu whose only consumer
  reads a conv straight into that conv's epilogue list;
* :func:`fuse_residual_add` — fold a residual add into the epilogue of the
  conv producing its main operand (the paper's two long residuals both
  fuse, leaving SESR as a pure conv chain).

On every graph :func:`repro.deploy.to_deployable` produces, the two passes
leave only conv, deconv and depth-to-space nodes, which is all the
executor runs.  Algorithm 2 and int8 quantization are not passes: the
compiler captures a model that :func:`repro.deploy.to_deployable` already
collapsed (and quantized), so each has one implementation, in
:mod:`repro.core.collapse` and :mod:`repro.deploy.quantize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .ir import Graph

PassFn = Callable[[Graph], int]


@dataclass(frozen=True)
class PassEntry:
    """One pipeline step of a :meth:`PassManager.run`."""

    name: str
    changes: int
    nodes_before: int
    nodes_after: int


class PassManager:
    """Runs :data:`DEFAULT_PASSES` over a copy of the graph."""

    def run(self, graph: Graph) -> Tuple[Graph, List[PassEntry]]:
        g = graph.copy().infer_shapes()
        log: List[PassEntry] = []
        for pass_fn in DEFAULT_PASSES:
            before = len(g.nodes)
            changes = pass_fn(g)
            g.infer_shapes()
            log.append(PassEntry(
                pass_fn.__name__, changes, before, len(g.nodes),
            ))
        return g, log


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
    """Fold relu/prelu nodes into their producing conv's epilogue.

    A prelu without a bound ``alpha`` (a weightless builder graph) stays
    a node.
    """
    changes = 0
    for name in list(graph.nodes):
        node = graph.nodes.get(name)
        if node is None or node.op not in ("relu", "prelu"):
            continue
        if node.op == "prelu" and "alpha" not in node.attrs:
            continue
        consumers = graph.consumers()
        conv_name = node.inputs[0]
        if not _fusible_conv(graph, consumers, name, conv_name):
            continue
        conv = graph.nodes[conv_name]
        if node.op == "relu":
            conv.epilogues.append(("relu", name))
        else:
            conv.epilogues.append(("prelu", node.attrs["alpha"], name))
        graph.replace_uses(name, conv_name)
        graph.remove(name)
        changes += 1
    return changes


def fuse_residual_add(graph: Graph) -> int:
    """Fold a residual add into the conv producing its main operand.

    The conv gains an extra input (the skip operand) and an ``("add", idx,
    name)`` epilogue — executed as an in-place ``+=`` on the conv's output
    buffer.  Requires the skip operand to be defined *before* the conv
    (true for both of SESR's long residuals) so execution order is
    unchanged.
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


#: The pipeline :func:`repro.compile.compile_model` runs, in order.
DEFAULT_PASSES: Tuple[PassFn, ...] = (
    fuse_conv_activation,
    fuse_residual_add,
)
