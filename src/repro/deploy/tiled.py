"""Functional tiled inference (the executable side of §5.6).

The paper's tiling optimisation processes a 1080p frame as 400×300 tiles
to keep feature maps inside NPU SRAM, and notes the "boundary overhead when
tiling to maintain the functional correctness".  :mod:`repro.hw.tiling`
models the *performance* of that scheme; this module implements the scheme
itself:

* :func:`receptive_radius` — how many LR pixels of context a collapsed
  network needs (for SESR: 2 + m + 2 pixels);
* :func:`plan_tiles` — the one tile grid: each :class:`TileSpec` is a
  core window plus its halo, clamped to the frame, and
  :meth:`TileSpec.stitch` crops the upscaled core back out.  The serving
  engine (:mod:`repro.serve.engine`) tiles with the same two calls;
* :func:`tiled_upscale` — split, run with halo, crop, stitch.  With
  ``halo >= receptive_radius`` the stitched output is *bit-identical* to
  full-frame inference (property-tested), which is exactly the functional
  correctness the paper's overhead pays for;
* :func:`halo_overhead` — the fraction of extra pixels computed, the
  quantity behind the paper's "boundary overhead" caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..metrics.complexity import specs_from_module
from ..nn import Module
from ..train.trainer import predict_image


def receptive_radius(model_or_specs) -> int:
    """Half-width of the network's receptive field in input pixels.

    Each ``k×k`` convolution adds ``(k-1)/2`` pixels of context (maximum
    over both axes for asymmetric kernels).
    """
    if isinstance(model_or_specs, Module):
        model = model_or_specs
        # Compiled models precompute their radius from the graph.
        rr = getattr(model, "receptive_radius", None)
        if isinstance(rr, int):
            return rr
        # Collapsed/quantized SESR-style nets expose first/convs/last
        # directly; fall back to the spec builder for everything else.
        if all(hasattr(model, a) for a in ("first", "convs", "last")):
            layers = [model.first, *model.convs, model.last]
            return sum((max(layer.kernel_size) - 1) // 2 for layer in layers)
        specs = specs_from_module(model)
    else:
        specs = list(model_or_specs)
    radius = 0
    for spec in specs:
        if spec.kind in ("conv", "deconv"):
            radius += (max(spec.kernel) - 1) // 2
    return radius


@dataclass(frozen=True)
class TileSpec:
    """One tile: output core ``[y0:y1, x0:x1]`` + halo window in LR coords."""

    y0: int
    y1: int
    x0: int
    x1: int
    hy0: int
    hy1: int
    hx0: int
    hx1: int

    @property
    def halo_shape(self) -> Tuple[int, int]:
        return (self.hy1 - self.hy0, self.hx1 - self.hx0)

    def stitch(self, out: np.ndarray, sr: np.ndarray, scale: int) -> None:
        """Copy the upscaled core of this tile's result ``sr`` into ``out``."""
        cy0, cx0 = (self.y0 - self.hy0) * scale, (self.x0 - self.hx0) * scale
        cy1 = cy0 + (self.y1 - self.y0) * scale
        cx1 = cx0 + (self.x1 - self.x0) * scale
        out[self.y0 * scale:self.y1 * scale,
            self.x0 * scale:self.x1 * scale] = sr[cy0:cy1, cx0:cx1]


def plan_tiles(
    h: int, w: int, tile: Tuple[int, int], halo: int
) -> List[TileSpec]:
    """Split an ``h×w`` frame into ``tile``-sized cores, row-major.

    Edge tiles are ragged; each halo window extends ``halo`` pixels past
    its core and is clamped to the frame.
    """
    th, tw = tile
    if th <= 0 or tw <= 0:
        raise ValueError("tile dimensions must be positive")
    specs = []
    for y0 in range(0, h, th):
        for x0 in range(0, w, tw):
            y1, x1 = min(y0 + th, h), min(x0 + tw, w)
            specs.append(TileSpec(
                y0, y1, x0, x1,
                max(y0 - halo, 0), min(y1 + halo, h),
                max(x0 - halo, 0), min(x1 + halo, w),
            ))
    return specs


def tiled_upscale(
    model: Module,
    lr_img: np.ndarray,
    scale: int,
    tile: Tuple[int, int] = (64, 64),
    halo: Optional[int] = None,
) -> np.ndarray:
    """Super-resolve ``lr_img`` tile by tile with halo overlap.

    Parameters
    ----------
    model:
        Any (H, W) → (sH, sW) SISR model usable with
        :func:`repro.train.predict_image`.
    scale:
        The model's upscaling factor.
    tile:
        Core tile size ``(th, tw)`` in LR pixels (output stitched from
        ``th·s × tw·s`` blocks).
    halo:
        Context pixels read around each tile.  Defaults to the model's
        receptive radius, which makes tiling exact.
    """
    lr_img = np.asarray(lr_img, dtype=np.float32)
    h, w = lr_img.shape
    if halo is None:
        halo = receptive_radius(model)
    out = np.zeros((h * scale, w * scale), dtype=np.float32)
    for t in plan_tiles(h, w, tile, halo):
        sr = predict_image(model, lr_img[t.hy0:t.hy1, t.hx0:t.hx1])
        t.stitch(out, sr, scale)
    return out


def halo_overhead(
    in_h: int, in_w: int, tile: Tuple[int, int], halo: int
) -> float:
    """Fraction of extra input pixels processed due to halo overlap.

    This is the "boundary overhead ... to maintain the functional
    correctness" the paper's §5.6 tiling estimate deliberately ignores;
    pass it as ``halo_factor = 1 + halo_overhead(...)`` to
    :func:`repro.hw.tiling.estimate_tiled` for a corrected runtime.
    """
    total = sum(
        (t.hy1 - t.hy0) * (t.hx1 - t.hx0)
        for t in plan_tiles(in_h, in_w, tile, halo)
    )
    return total / (in_h * in_w) - 1.0


def paper_tile_grid(in_h: int = 1080, in_w: int = 1920,
                    tile: Tuple[int, int] = (300, 400)) -> float:
    """The paper's fractional tile count, e.g. (1920/400)·(1080/300) = 17.28."""
    return (in_h / tile[0]) * (in_w / tile[1])


def self_ensemble(
    model: Module,
    lr_img: np.ndarray,
    scale: int,
    transforms: int = 8,
) -> np.ndarray:
    """Geometric self-ensemble inference (Lim et al., EDSR — "x8 ensemble").

    Super-resolve all dihedral transforms of the input, invert each
    transform on the output, and average.  The SISR degradation is
    equivariant to the dihedral group, so every view is a valid prediction;
    averaging cancels orientation-dependent errors and typically buys
    ~0.1 dB at 8x the inference cost — an accuracy/compute trade in the
    opposite direction from the paper's efficiency focus, provided for
    quality-first deployments.

    Parameters
    ----------
    transforms:
        How many of the 8 dihedral views to average (1 = plain inference,
        4 = rotations only, 8 = full ensemble).
    """
    if not 1 <= transforms <= 8:
        raise ValueError("transforms must be in [1, 8]")
    lr_img = np.asarray(lr_img, dtype=np.float32)
    accum = np.zeros((lr_img.shape[0] * scale, lr_img.shape[1] * scale),
                     dtype=np.float64)
    count = 0
    for flip in (False, True):
        for k in range(4):
            if count >= transforms:
                break
            view = np.rot90(lr_img, k)
            if flip:
                view = np.fliplr(view)
            sr = predict_image(model, np.ascontiguousarray(view))
            if flip:
                sr = np.fliplr(sr)
            accum += np.rot90(sr, -k)
            count += 1
    return (accum / count).astype(np.float32)
