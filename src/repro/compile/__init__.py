"""``repro.compile`` — compile the collapsed inference path.

The paper's contribution is itself a compile-time transform (Algorithms
1–2 collapse training-time linear blocks into narrow convs); this package
finishes the pipeline the same way an NPU toolchain would:

capture → fuse → plan → execute

It compiles exactly what :func:`repro.deploy.to_deployable` produces:
collapsed SESR, weights-only int8 SESR and FSRCNN.

:mod:`~repro.compile.capture`
    Reify one of those models into the typed static graph of
    :mod:`~repro.compile.ir` — the *single* model description that
    :mod:`repro.metrics.complexity` counts, :mod:`repro.hw` simulates (via
    :func:`to_layer_specs`), and the executor runs.  Anything else raises
    :class:`CaptureError`.
:mod:`~repro.compile.passes`
    A pass manager with two bit-exact passes: conv+activation fusion and
    residual-add fusion.  Collapse and int8 happen before capture
    (:func:`repro.deploy.to_deployable`), not as passes.
:mod:`~repro.compile.planner`
    Liveness analysis + greedy interval colouring: run in a few reusable
    arenas instead of one allocation per op.
:mod:`~repro.compile.executor`
    A :class:`~repro.nn.Module`-compatible executor over the plan that
    runs conv (with fused epilogues), deconv and depth-to-space —
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

from .capture import CaptureError, capture, fsrcnn_ir, sesr_ir
from .executor import CompiledModel
from .ir import Graph, IRError, Node, receptive_radius, to_layer_specs
from .passes import (
    DEFAULT_PASSES,
    PassEntry,
    PassManager,
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
    "compile_model",
    "fsrcnn_ir",
    "fuse_conv_activation",
    "fuse_residual_add",
    "plan_buffers",
    "receptive_radius",
    "sesr_ir",
    "to_layer_specs",
]


def compile_model(model) -> CompiledModel:
    """Capture, fuse, plan, and wrap ``model`` for execution.

    Raises :class:`~repro.compile.capture.CaptureError` for a model
    :func:`repro.deploy.to_deployable` does not produce.
    """
    graph, pass_log = PassManager().run(capture(model))
    return CompiledModel(graph, pass_log=pass_log)
