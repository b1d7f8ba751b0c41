"""The deploy path from a model name to pixels, one function per decision.

The paper deploys SESR one way: build the expanded network, load its
trained weights, collapse it (Algorithms 1–2), optionally int8-quantize
it, then run it on the Y channel with bicubic chroma (§5).  Every entry
point — ``repro.api``, the CLI commands and the serving registry — goes
through these three functions, so they agree by construction:

* :func:`load` — name → training-shaped model (+ checkpoint);
* :func:`to_deployable` — trained → deployable (collapse, int8, eval);
* :func:`upscale_colour` — the colour protocol around a Y-channel
  callable.

The tile grid lives next door in :mod:`repro.deploy.tiled`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import zoo
from ..core.sesr import CollapsedSESR
from ..datasets import rgb_to_ycbcr, ycbcr_to_rgb
from ..datasets.degradation import bicubic_upscale
from ..nn import Module, load_state
from ..train.checkpoint import CheckpointCorrupt
from .quantize import quantize_sesr

PRECISIONS = ("fp32", "int8")

#: What :func:`load` and :func:`to_deployable` raise for a caller error
#: (unknown name, missing, mismatched or unreadable checkpoint, int8 on a
#: model that is not SESR); the CLI reports these with exit status 2.
LOAD_ERRORS = (KeyError, ValueError, FileNotFoundError, CheckpointCorrupt)


def load(name: str = "M5", scale: int = 2, ckpt: str = "", seed: int = 0,
         **factory_kwargs) -> Module:
    """Build the training-shaped model for ``name``, loading ``ckpt`` if set.

    ``name`` resolves through the zoo's factories: the exact entry name
    (``"SESR-M5"``, ``"FSRCNN (our setup)"``), then its upper-case form,
    then with a ``SESR-`` prefix, so the short forms ``"M5"``/``"m5"``/
    ``"XL"`` work too.  ``factory_kwargs`` go to the factory (e.g.
    ``mode="expanded"`` for SESR).  ``ckpt`` is an ``.npz`` written by
    :func:`repro.nn.save_state`.

    Raises :class:`KeyError` for an unknown name (listing the deployable
    entries), :class:`FileNotFoundError` for a missing checkpoint,
    :class:`KeyError`/:class:`ValueError` naming the file when its arrays
    do not fit the model, and
    :class:`~repro.train.checkpoint.CheckpointCorrupt` when it cannot be
    read at all.
    """
    for candidate in (name, name.upper(), f"SESR-{name.upper()}"):
        entry = zoo.ZOO.get(candidate)
        if entry is not None and entry.factory is not None:
            model = entry.factory(scale=scale, seed=seed, **factory_kwargs)
            break
    else:
        raise KeyError(
            f"unknown model {name!r}; deployable zoo entries: "
            f"{zoo.factory_names()}"
        )
    if ckpt:
        try:
            load_state(model, ckpt)
        except FileNotFoundError:
            raise
        except (KeyError, ValueError) as exc:
            # Wrong architecture / missing keys: a caller error, but keep
            # the message pointed at the offending file.
            raise type(exc)(
                f"checkpoint {ckpt!r} does not match model {name!r}: {exc}"
            ) from exc
        except Exception as exc:  # zipfile.BadZipFile, zlib.error, ...
            raise CheckpointCorrupt(
                f"checkpoint {ckpt!r} is unreadable (truncated or "
                f"damaged): {exc}"
            ) from exc
    return model


def to_deployable(model: Module, precision: str = "fp32") -> Module:
    """The inference net for a trained model, in eval mode.

    Collapses the model when it can (Algorithm 2; FSRCNN and other
    inference-shaped nets pass through unchanged).  ``precision="int8"``
    then applies weights-only post-training quantization
    (:func:`~repro.deploy.quantize.quantize_sesr`), which only a collapsed
    SESR supports: anything else raises :class:`ValueError`.
    """
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}; know {PRECISIONS}")
    deployed = model.collapse() if hasattr(model, "collapse") else model
    if precision == "int8":
        if not isinstance(deployed, CollapsedSESR):
            raise ValueError(
                f"precision 'int8' requires a SESR model, got "
                f"{type(model).__name__!r}"
            )
        deployed = quantize_sesr(deployed)
    deployed.eval()
    return deployed


def upscale_colour(image: np.ndarray, scale: int,
                   run_y: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Super-resolve ``image`` with the paper's colour protocol.

    A grey ``(H, W)`` image goes straight to ``run_y``.  A colour
    ``(H, W, 3)`` image is converted to YCbCr; ``run_y`` super-resolves
    the Y channel and the chroma is bicubic-upscaled by ``scale``.
    ``run_y`` maps an ``(H, W)`` float32 array to ``(sH, sW)``.
    """
    image = np.asarray(image, dtype=np.float32)
    if image.ndim == 2:
        return run_y(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(
            f"expected (H, W) grey or (H, W, 3) colour, got {image.shape}"
        )
    ycbcr = rgb_to_ycbcr(image)
    y_sr = run_y(np.ascontiguousarray(ycbcr[..., 0]))
    cb = bicubic_upscale(ycbcr[..., 1], scale)
    cr = bicubic_upscale(ycbcr[..., 2], scale)
    return ycbcr_to_rgb(np.stack([y_sr, cb, cr], axis=2))
