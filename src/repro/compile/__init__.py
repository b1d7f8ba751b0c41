"""``repro.compile`` — compile the collapsed inference path.

The paper's contribution is itself a compile-time transform (Algorithms
1–2 collapse training-time linear blocks into narrow convs); this package
finishes the pipeline the same way an NPU toolchain would:

capture → optimise → plan → execute

:mod:`~repro.compile.capture`
    Reify a collapsed SESR / quantized SESR / FSRCNN / CARN model into the
    typed static graph of :mod:`~repro.compile.ir` — the *single* model
    description that :mod:`repro.metrics.complexity` counts,
    :mod:`repro.hw` simulates (via :func:`to_layer_specs`), and the
    executor runs.
:mod:`~repro.compile.passes`
    A pass manager with bit-exact passes (constant folding,
    conv+activation fusion, residual-add fusion, dead-node elimination).
    Collapse and int8 happen before capture
    (:func:`repro.deploy.to_deployable`), not as passes.
:mod:`~repro.compile.planner`
    Liveness analysis + greedy interval colouring: run in a few reusable
    arenas instead of one allocation per op.
:mod:`~repro.compile.executor`
    A :class:`~repro.nn.Module`-compatible executor over the plan —
    bit-identical to eager (pinned by tests), profiled and traced via
    :mod:`repro.obs`.

Entry point::

    from repro.compile import compile_model
    fast = compile_model(trained_sesr.collapse())

``repro.serve`` and ``repro upscale`` run compiled plans; the eager
collapsed network stays the oracle they are tested against.  The
``repro compile`` CLI dumps the IR, the pass log, and plan stats.  See
``docs/compiler.md``.
"""

from .capture import CaptureError, capture, carn_ir, fsrcnn_ir, sesr_ir
from .executor import CompiledModel
from .ir import Graph, IRError, Node, receptive_radius, to_layer_specs
from .passes import (
    DEFAULT_PASSES,
    PassEntry,
    PassManager,
    eliminate_dead_nodes,
    fold_constants,
    fuse_conv_activation,
    fuse_residual_add,
)
from .planner import BufferPlan, plan_buffers

__all__ = [
    "CaptureError",
    "CompiledModel",
    "Graph",
    "IRError",
    "Node",
    "BufferPlan",
    "PassEntry",
    "PassManager",
    "DEFAULT_PASSES",
    "capture",
    "carn_ir",
    "compile_model",
    "eliminate_dead_nodes",
    "fold_constants",
    "fsrcnn_ir",
    "fuse_conv_activation",
    "fuse_residual_add",
    "plan_buffers",
    "receptive_radius",
    "sesr_ir",
    "to_layer_specs",
]


def compile_model(model, *, optimize: bool = True) -> CompiledModel:
    """Capture, optimise, plan, and wrap ``model`` for execution.

    ``optimize=False`` skips the pass pipeline (the unfused graph still
    executes bit-identically — useful for debugging a pass).  Raises
    :class:`~repro.compile.capture.CaptureError` for unsupported models.
    """
    graph = capture(model)
    source = graph.name
    pass_log = []
    if optimize:
        graph, pass_log = PassManager().run(graph)
    return CompiledModel(
        graph, plan_buffers(graph), pass_log=pass_log, source=source,
    )
