"""``repro.deploy`` — the deployment path: load, collapse, int8, tiles, colour.

These are the functional counterparts of the paper's hardware story: the
NPU in §5.6 runs int8 (see :mod:`repro.hw`'s 1-byte activations) and
processes frames in tiles; this package quantizes collapsed networks and
executes exact tiled inference so both effects can be measured on images,
not just in the performance model.  It also owns each deploy decision
once (:mod:`~repro.deploy.pipeline`): :func:`load` resolves a model name
and checkpoint, :func:`to_deployable` collapses and optionally quantizes,
:func:`upscale_colour` applies the Y-channel colour protocol, and
:func:`plan_tiles` is the tile grid.  ``repro.api``, the CLI and
``repro.serve`` all call these.
"""

from .quantize import (
    ActivationObserver,
    QuantParams,
    QuantizedConv2d,
    QuantizedSESR,
    calibrate_activations,
    calibrate_tensor,
    calibrate_weight_per_channel,
    quantize_sesr,
)
from .tiled import (
    TileSpec,
    halo_overhead,
    self_ensemble,
    paper_tile_grid,
    plan_tiles,
    receptive_radius,
    tiled_upscale,
)
from .pipeline import load, to_deployable, upscale_colour

__all__ = [
    "ActivationObserver",
    "QuantParams",
    "QuantizedConv2d",
    "QuantizedSESR",
    "calibrate_activations",
    "calibrate_tensor",
    "calibrate_weight_per_channel",
    "quantize_sesr",
    "TileSpec",
    "halo_overhead",
    "self_ensemble",
    "paper_tile_grid",
    "plan_tiles",
    "receptive_radius",
    "tiled_upscale",
    "load",
    "to_deployable",
    "upscale_colour",
]
