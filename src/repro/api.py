"""``repro.api`` — the supported entry points, in one place.

The repo grew subsystem by subsystem (training, collapse, compiler,
serving), and with it the import paths a user must know.  This module is
the stable facade over that growth: everything a typical consumer of the
reproduction needs — build a model, load a checkpoint, collapse it to
the inference net (Algorithm 2), compile it, run it on an image, and
serve it over HTTP — importable from one namespace whose contents are
the compatibility surface (``docs/api.md`` is generated from it).

>>> from repro import api
>>> model = api.collapse(api.load("M5", scale=2, ckpt="sesr_m5_x2.npz"))
>>> sr = api.upscale(api.compile_model(model), lr_image)

Serving::

>>> config = api.EngineConfig(workers=4, batch_window_ms=3.0)
>>> engine = api.InferenceEngine(
...     api.ModelRegistry(), api.ModelKey("M5", 2), config=config)
>>> server = api.make_server(engine, port=8000)

``load``, ``collapse`` and ``upscale`` are thin names over
:mod:`repro.deploy.pipeline`, the one deploy path the CLI and the serving
registry share (``load`` *is* :func:`repro.deploy.load`).

Deeper machinery (custom training loops, the NAS searcher, the NPU
estimator, chaos tooling) stays in its subsystem package; this module
deliberately re-exports only the pieces whose signatures we keep stable.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .compile import compile_model
from .deploy import load, tiled_upscale, to_deployable, upscale_colour
from .nn import Module
from .serve import (
    EngineConfig,
    InferenceEngine,
    ModelKey,
    ModelRegistry,
    make_server,
)
from .train import predict_image

__all__ = [
    "load",
    "collapse",
    "compile_model",
    "upscale",
    "EngineConfig",
    "InferenceEngine",
    "ModelKey",
    "ModelRegistry",
    "make_server",
]


def collapse(model: Module) -> Module:
    """The deployable inference net: Algorithm 2, in eval mode.

    Models without a ``collapse`` method (FSRCNN and friends) pass
    through unchanged — they are already inference-shaped.  This is
    :func:`repro.deploy.to_deployable` at fp32, the call the serving
    registry makes.
    """
    return to_deployable(model)


def upscale(
    model: Module,
    image: np.ndarray,
    scale: Optional[int] = None,
    tile: Optional[Union[int, Tuple[int, int]]] = None,
) -> np.ndarray:
    """Super-resolve one image with the paper's colour protocol.

    Grey ``(H, W)`` inputs go straight through the model; colour
    ``(H, W, 3)`` inputs are super-resolved on the Y channel with
    bicubic-upscaled chroma (:func:`repro.deploy.upscale_colour`, which
    ``repro.cli upscale`` and the HTTP server call too, so all three give
    the same pixels).  ``scale`` defaults to ``model.scale``; ``tile``
    switches to halo-exact tiled inference (identical bytes, bounded
    memory) for large frames.
    """
    if scale is None:
        scale = getattr(model, "scale", None)
        if scale is None:
            raise ValueError(
                "model has no .scale attribute; pass scale= explicitly"
            )

    def run_y(y: np.ndarray) -> np.ndarray:
        if tile is not None:
            t = (tile, tile) if isinstance(tile, int) else tuple(tile)
            return tiled_upscale(model, y, scale, tile=t)
        return predict_image(model, y)

    return upscale_colour(image, scale, run_y)
