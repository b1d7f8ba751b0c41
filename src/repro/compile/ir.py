"""Typed static-graph IR for the collapsed inference path.

A :class:`Graph` is an ordered set of named :class:`Node`\\ s — conv,
deconv, relu/prelu, add, depth-to-space — held in topological order
(insertion order is validated to be topological).  These are the ops of
the graphs :func:`repro.deploy.to_deployable` produces: collapsed SESR
(Fig. 2(d)), its weights-only int8 form, and FSRCNN.  Spatial dimensions
stay symbolic: every node carries ``(channels, res_scale)``, where
``res_scale`` is the node's output resolution relative to the network input,
exactly the convention of :class:`repro.metrics.complexity.LayerSpec`.  A
graph therefore describes *every* tile size the serving engine may feed it;
concrete shapes are bound at execution time (:mod:`repro.compile.executor`).

The IR is the single model description shared by three consumers:

* :func:`to_layer_specs` exports the graph as a ``LayerSpec`` sequence, which
  is what :mod:`repro.metrics.complexity` counts and :mod:`repro.hw`
  simulates — one source of truth instead of three drifting ones;
* :func:`repro.compile.plan_buffers` runs liveness analysis over it;
* :class:`repro.compile.CompiledModel` executes it.

Convs may carry an ordered **epilogue** list — ``("relu", name)``,
``("prelu", alpha, name)``, ``("add", input_idx, name)`` — produced by the
fusion passes, which fold every relu/prelu/add node of a deployable graph
into one.  Epilogues are applied in place on the conv's output buffer; the
exporter re-expands them, so ``to_layer_specs`` is invariant under fusion
(pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..metrics.complexity import LayerSpec

#: Every operation the IR can express.
OP_KINDS = (
    "input",
    "conv",
    "deconv",
    "relu",
    "prelu",
    "add",
    "depth_to_space",
)

#: Required attribute keys per op (beyond what shape inference derives).
_REQUIRED_ATTRS = {
    "input": ("channels",),
    "conv": ("kernel", "cin", "cout"),
    "deconv": ("kernel", "cin", "cout", "stride"),
    "depth_to_space": ("block",),
}

#: How many value inputs each op consumes (conv may gain more via fused adds).
_ARITY = {
    "input": 0,
    "conv": 1,
    "deconv": 1,
    "relu": 1,
    "prelu": 1,
    "add": 2,
    "depth_to_space": 1,
}


class IRError(ValueError):
    """An ill-formed graph: bad op, dangling input, shape mismatch, ..."""


@dataclass
class Node:
    """One typed operation.

    ``inputs`` name producer nodes (position 0 is the main data path; for
    ``add``, position 1 is the *side* operand — the convention the
    ``LayerSpec`` exporter relies on).  ``channels``/``res_scale`` are
    filled in by :meth:`Graph.infer_shapes`.
    """

    name: str
    op: str
    inputs: List[str] = field(default_factory=list)
    attrs: Dict[str, Any] = field(default_factory=dict)
    channels: int = 0
    res_scale: float = 1.0
    epilogues: List[tuple] = field(default_factory=list)

    def kernel(self) -> Tuple[int, int]:
        kh, kw = self.attrs["kernel"]
        return int(kh), int(kw)

    def copy(self) -> "Node":
        return Node(
            self.name,
            self.op,
            list(self.inputs),
            dict(self.attrs),
            self.channels,
            self.res_scale,
            list(self.epilogues),
        )


class Graph:
    """An ordered, validated DAG of :class:`Node` objects.

    Nodes must be added producers-first, so ``nodes.values()`` *is* a
    topological order — the property every pass, the planner, and the
    executor rely on (re-checked by :meth:`infer_shapes`).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, node: Node) -> str:
        """Append ``node``; its inputs must already exist.  Returns the name."""
        if node.op not in OP_KINDS:
            raise IRError(f"unknown op {node.op!r} (node {node.name!r})")
        if not node.name:
            raise IRError("nodes must be named")
        if node.name in self.nodes:
            raise IRError(f"duplicate node name {node.name!r}")
        for src in node.inputs:
            if src not in self.nodes:
                raise IRError(
                    f"node {node.name!r} reads undefined input {src!r}"
                )
        for key in _REQUIRED_ATTRS.get(node.op, ()):
            if key not in node.attrs:
                raise IRError(
                    f"{node.op} node {node.name!r} missing attr {key!r}"
                )
        self.nodes[node.name] = node
        if node.op == "input":
            self.inputs.append(node.name)
        return node.name

    def add_input(self, name: str, channels: int) -> str:
        return self.add(Node(name, "input", [], {"channels": int(channels)}))

    def set_outputs(self, names: Sequence[str]) -> None:
        for n in names:
            if n not in self.nodes:
                raise IRError(f"unknown output node {n!r}")
        self.outputs = list(names)

    def copy(self) -> "Graph":
        """Structural copy; weight arrays are shared (treated read-only)."""
        g = Graph(self.name)
        for node in self.nodes.values():
            g.nodes[node.name] = node.copy()
        g.inputs = list(self.inputs)
        g.outputs = list(self.outputs)
        return g

    # ------------------------------------------------------------------ #
    # mutation (used by the fusion passes)
    # ------------------------------------------------------------------ #
    def remove(self, name: str) -> None:
        node = self.nodes.pop(name)
        if node.op == "input":
            self.inputs.remove(name)
        if name in self.outputs:
            raise IRError(f"cannot remove graph output {name!r}")

    def replace_uses(self, old: str, new: str) -> None:
        """Rewrite every reference to ``old`` (inputs and outputs) to ``new``."""
        for node in self.nodes.values():
            if node.name == new:
                continue
            node.inputs = [new if i == old else i for i in node.inputs]
        self.outputs = [new if o == old else o for o in self.outputs]

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def consumers(self) -> Dict[str, List[str]]:
        """Map each node to the nodes that read it (in topo order)."""
        out: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for node in self.nodes.values():
            for src in node.inputs:
                out[src].append(node.name)
        return out

    def infer_shapes(self) -> "Graph":
        """Validate the graph and fill in ``channels``/``res_scale``."""
        if not self.outputs:
            raise IRError("graph has no outputs")
        seen: Dict[str, Node] = {}
        for node in self.nodes.values():
            for src in node.inputs:
                if src not in seen:
                    raise IRError(
                        f"node {node.name!r} is not in topological order "
                        f"(reads {src!r} before its definition)"
                    )
            self._infer_node(node, seen)
            seen[node.name] = node
        for out in self.outputs:
            if out not in self.nodes:
                raise IRError(f"unknown output node {out!r}")
        return self

    def _infer_node(self, node: Node, seen: Dict[str, Node]) -> None:
        op, a = node.op, node.attrs
        arity = _ARITY[op]
        n_main = len(node.inputs) - sum(
            1 for e in node.epilogues if e[0] == "add"
        )
        if n_main != arity:
            raise IRError(
                f"{op} node {node.name!r} expects {arity} input(s), "
                f"got {n_main}"
            )
        if op == "input":
            node.channels, node.res_scale = int(a["channels"]), 1.0
        elif op in ("conv", "deconv"):
            src = seen[node.inputs[0]]
            cin, cout = int(a["cin"]), int(a["cout"])
            if src.channels != cin:
                raise IRError(
                    f"{op} node {node.name!r}: input has {src.channels} "
                    f"channels, weight expects {cin}"
                )
            w = a.get("weight")
            if w is not None:
                kh, kw = node.kernel()
                expect = (kh, kw, cin, cout)
                if tuple(w.shape) != expect:
                    raise IRError(
                        f"{op} node {node.name!r}: weight shape "
                        f"{tuple(w.shape)} != {expect}"
                    )
            node.channels = cout
            node.res_scale = src.res_scale * (
                int(a["stride"]) if op == "deconv" else 1
            )
            self._infer_epilogues(node, seen)
        elif op in ("relu", "prelu"):
            src = seen[node.inputs[0]]
            node.channels, node.res_scale = src.channels, src.res_scale
        elif op == "add":
            main, side = seen[node.inputs[0]], seen[node.inputs[1]]
            self._check_add(node.name, main, side)
            node.channels, node.res_scale = main.channels, main.res_scale
        elif op == "depth_to_space":
            src = seen[node.inputs[0]]
            r = int(a["block"])
            if src.channels % (r * r):
                raise IRError(
                    f"depth_to_space node {node.name!r}: {src.channels} "
                    f"channels not divisible by block²={r * r}"
                )
            node.channels = src.channels // (r * r)
            node.res_scale = src.res_scale * r

    def _infer_epilogues(self, node: Node, seen: Dict[str, Node]) -> None:
        for ep in node.epilogues:
            if ep[0] not in ("relu", "prelu", "add"):
                raise IRError(
                    f"conv node {node.name!r}: unknown epilogue {ep[0]!r}"
                )
            if ep[0] == "add":
                idx = ep[1]
                if not 0 < idx < len(node.inputs):
                    raise IRError(
                        f"conv node {node.name!r}: epilogue add index {idx} "
                        f"out of range"
                    )
                self._check_add(node.name, node, seen[node.inputs[idx]])

    @staticmethod
    def _check_add(name: str, main: Node, side: Node) -> None:
        if side.channels not in (1, main.channels):
            raise IRError(
                f"add node {name!r}: side operand has {side.channels} "
                f"channels, main has {main.channels} (not broadcastable)"
            )
        if side.res_scale != main.res_scale:
            raise IRError(f"add node {name!r}: operand resolutions differ")

    # ------------------------------------------------------------------ #
    # accounting / reporting
    # ------------------------------------------------------------------ #
    def macs(self, in_h: int, in_w: int) -> int:
        """Total conv/deconv MACs for an ``in_h × in_w`` network input.

        Same convention as :func:`repro.metrics.complexity.count_macs`:
        ``kh·kw·C_in·C_out`` per output pixel.
        """
        total = 0
        for node in self.nodes.values():
            if node.op not in ("conv", "deconv"):
                continue
            kh, kw = node.kernel()
            out_px = round(in_h * node.res_scale) * round(in_w * node.res_scale)
            total += (
                kh * kw * int(node.attrs["cin"]) * int(node.attrs["cout"])
                * out_px
            )
        return total

    def pretty(self) -> str:
        """Human-readable dump (``repro compile --dump-ir``)."""
        lines = [f"graph {self.name or '<anonymous>'}"]
        for node in self.nodes.values():
            detail = ""
            if node.op in ("conv", "deconv"):
                kh, kw = node.kernel()
                detail = f" k{kh}x{kw} {node.attrs['cin']}->{node.attrs['cout']}"
            elif node.op == "depth_to_space":
                detail = f" r{node.attrs['block']}"
            eps = "".join(f" +{e[0]}" for e in node.epilogues)
            srcs = ", ".join(node.inputs)
            lines.append(
                f"  %{node.name} = {node.op}{detail}({srcs}){eps}"
                f"  # C={node.channels} rs={node.res_scale:g}"
            )
        lines.append(f"  outputs: {', '.join(self.outputs)}")
        return "\n".join(lines)


def receptive_radius(graph: Graph) -> int:
    """Half-width of the receptive field in input pixels.

    Each ``k×k`` conv/deconv adds ``(max(k) - 1) // 2`` pixels of context —
    the same convention as :func:`repro.deploy.tiled.receptive_radius`, so a
    compiled model's halo matches the eager path's.
    """
    radius = 0
    for node in graph.nodes.values():
        if node.op in ("conv", "deconv"):
            radius += (max(node.kernel()) - 1) // 2
    return radius


def to_layer_specs(graph: Graph) -> List[LayerSpec]:
    """Export the graph as the ``LayerSpec`` sequence it denotes.

    This is the bridge that lets :mod:`repro.metrics.complexity` and
    :mod:`repro.hw` consume the compiler's IR.  Fused conv epilogues are
    re-expanded to their original act/add specs, so the export is
    invariant under the fusion passes.
    """
    graph.infer_shapes()
    specs: List[LayerSpec] = []
    for node in graph.nodes.values():
        if node.op == "input":
            continue
        if node.op in ("conv", "deconv"):
            specs.append(
                LayerSpec(
                    node.op,
                    node.kernel(),
                    int(node.attrs["cin"]),
                    int(node.attrs["cout"]),
                    node.res_scale,
                    node.name,
                )
            )
            specs.extend(
                _epilogue_spec(graph, node, ep) for ep in node.epilogues
            )
        elif node.op in ("relu", "prelu"):
            specs.append(
                LayerSpec(
                    "act",
                    (1, 1),
                    node.channels,
                    node.channels,
                    node.res_scale,
                    node.name,
                )
            )
        elif node.op == "add":
            side = graph.nodes[node.inputs[1]]
            specs.append(
                LayerSpec(
                    "add",
                    (1, 1),
                    side.channels,
                    node.channels,
                    node.res_scale,
                    node.name,
                )
            )
        elif node.op == "depth_to_space":
            src = graph.nodes[node.inputs[0]]
            specs.append(
                LayerSpec(
                    "depth_to_space",
                    (1, 1),
                    src.channels,
                    node.channels,
                    node.res_scale,
                    node.name,
                )
            )
    return specs


def _epilogue_spec(graph: Graph, conv: Node, ep: tuple) -> LayerSpec:
    if ep[0] == "add":
        side = graph.nodes[conv.inputs[ep[1]]]
        return LayerSpec(
            "add", (1, 1), side.channels, conv.channels, conv.res_scale, ep[-1]
        )
    return LayerSpec(
        "act", (1, 1), conv.channels, conv.channels, conv.res_scale, ep[-1]
    )
