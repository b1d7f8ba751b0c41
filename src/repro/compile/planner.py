"""Liveness-based buffer planning (greedy interval colouring).

Eager execution allocates a fresh array per op, so peak memory is the sum
of *every* intermediate.  The planner computes each value's live interval
over the topological order and colours the intervals into a small set of
reusable **slots** — two values share a slot iff their intervals are
disjoint — so the executor runs in a handful of O(largest-intermediate)
arenas.

Sizes stay symbolic, like the IR itself: a node's buffer is measured in
**units** — float32 elements *per network-input pixel*, i.e.
``channels · res_scale²`` — which scales to concrete bytes as
``N·H·W·4·units`` for any input shape.  That one number is valid for every
tile the serving engine feeds the plan, which is what makes the plan
cacheable per model rather than per shape.

The greedy is best-fit decreasing-free: reuse the smallest free slot that
already fits, else grow the largest free slot, else open a new one.  The
plan reports ``naive_units`` (per-op allocation, what eager does) and
``lower_bound_units`` (max units simultaneously live — no colouring can do
better); tests pin ``planned < naive`` strictly for every zoo variant and
``planned == lower bound`` on pure chains.

Graph inputs are external (caller-owned); output nodes are excluded too —
the executor returns freshly allocated arrays, never arena views (a view
would be silently overwritten by the next request).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .ir import Graph


def _units(channels: int, res_scale: float) -> int:
    """Float32 elements per network-input pixel for one value."""
    return int(round(channels * res_scale * res_scale))


@dataclass(frozen=True)
class BufferPlan:
    """Slot assignment for every planned (arena-resident) node."""

    order: Tuple[str, ...]          # planned nodes, topological order
    slot_of: Dict[str, int]        # planned node -> slot index
    slot_units: Tuple[int, ...]     # per-slot capacity, in units
    node_units: Dict[str, int]     # planned node -> its own size, in units
    naive_units: int                # per-op allocation total (eager's peak)
    lower_bound_units: int          # max simultaneously-live units
    external: Tuple[str, ...]       # inputs/outputs: not in the arena

    @property
    def planned_units(self) -> int:
        return sum(self.slot_units)

    def arena_bytes(self, in_h: int, in_w: int, n: int = 1) -> int:
        """Planned arena size for a concrete input shape (float32)."""
        return 4 * n * in_h * in_w * self.planned_units

    def naive_bytes(self, in_h: int, in_w: int, n: int = 1) -> int:
        """What per-op allocation of the same values costs (float32)."""
        return 4 * n * in_h * in_w * self.naive_units

    def stats(self) -> Dict[str, int]:
        return {
            "planned_nodes": len(self.order),
            "slots": len(self.slot_units),
            "planned_units": self.planned_units,
            "naive_units": self.naive_units,
            "lower_bound_units": self.lower_bound_units,
        }


def plan_buffers(graph: Graph) -> BufferPlan:
    """Colour the graph's intermediate values into reusable slots."""
    graph.infer_shapes()
    consumers = graph.consumers()
    index = {name: i for i, name in enumerate(graph.nodes)}
    external = [
        name for name, node in graph.nodes.items()
        if node.op == "input" or name in graph.outputs
    ]
    planned = [n for n in graph.nodes if n not in external]

    node_units = {
        n: _units(graph.nodes[n].channels, graph.nodes[n].res_scale)
        for n in planned
    }
    # A value lives from its definition to its last consumer.  (Every node
    # of a captured graph has one; a node without lives at its own step.)
    last_use = {
        n: max((index[c] for c in consumers[n]), default=index[n])
        for n in planned
    }

    # Lower bound: the max total units simultaneously live at any step.
    lower_bound = 0
    for name in planned:
        i = index[name]
        live = sum(
            u for n, u in node_units.items()
            if index[n] <= i <= last_use[n]
        )
        lower_bound = max(lower_bound, live)

    # Greedy best-fit colouring over the topological scan.
    slot_units: List[int] = []
    slot_free_at: List[int] = []    # occupant's last_use; free when < i
    slot_of: Dict[str, int] = {}
    for name in planned:
        i, need = index[name], node_units[name]
        free = [s for s in range(len(slot_units)) if slot_free_at[s] < i]
        fitting = [s for s in free if slot_units[s] >= need]
        if fitting:
            slot = min(fitting, key=lambda s: slot_units[s])
        elif free:
            slot = max(free, key=lambda s: slot_units[s])
            slot_units[slot] = need
        else:
            slot_units.append(need)
            slot_free_at.append(-1)
            slot = len(slot_units) - 1
        slot_of[name] = slot
        slot_free_at[slot] = last_use[name]

    return BufferPlan(
        order=tuple(planned),
        slot_of=slot_of,
        slot_units=tuple(slot_units),
        node_units=node_units,
        naive_units=sum(node_units.values()),
        lower_bound_units=lower_bound,
        external=tuple(external),
    )

