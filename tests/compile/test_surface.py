"""The compiler's surface, pinned: a new op, pass or knob is a test diff.

The compiler covers exactly the graphs ``repro.deploy.to_deployable``
produces (collapsed SESR, weights-only int8 SESR, FSRCNN); growing any of
these sets is a reviewed decision, not a side effect.
"""

import inspect

import repro.serve
from repro.compile import DEFAULT_PASSES, CompiledModel, PassManager, compile_model
from repro.compile.executor import EXECUTED_OPS
from repro.compile.ir import OP_KINDS


def test_ir_op_kinds_are_pinned():
    assert OP_KINDS == (
        "input", "conv", "deconv", "relu", "prelu", "add", "depth_to_space",
    )


def test_default_passes_are_pinned():
    assert [p.__name__ for p in DEFAULT_PASSES] == [
        "fuse_conv_activation", "fuse_residual_add",
    ]


def test_executed_ops_are_pinned():
    assert EXECUTED_OPS == ("conv", "deconv", "depth_to_space")


def test_compile_model_and_pass_manager_take_no_knobs():
    assert list(inspect.signature(compile_model).parameters) == ["model"]
    assert list(inspect.signature(PassManager).parameters) == []


def test_run_takes_only_the_input():
    """No batch-mode flag: every stacked run is per-sample exact."""
    assert list(inspect.signature(CompiledModel.run).parameters) == [
        "self", "x",
    ]
    assert not hasattr(repro.serve, "predict_batch_exact")
    assert "predict_batch_exact" not in repro.serve.__all__
