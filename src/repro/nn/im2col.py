"""Patch extraction (im2col) and folding (col2im) for NHWC tensors.

Convolution in :mod:`repro.nn.ops` is implemented as

    patches = extract_patches(x_padded)        # (N, Ho, Wo, kh, kw, C)
    y = patches.reshape(-1, kh*kw*C) @ W.reshape(kh*kw*C, Cout)

which pushes all arithmetic into BLAS matmuls — the vectorized-NumPy idiom
the project guides call for.  ``extract_patches`` is a zero-copy view
built with ``numpy.lib.stride_tricks.as_strided``; ``fold_patches`` is its
adjoint (scatter-add), used by the convolution backward pass.

Inference convs, eager and compiled, copy the view one band of output
rows at a time (:func:`repro.nn.ops.conv_gemm`), so the patch layout here
is the one every path contracts over.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided


def extract_patches(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int] = (1, 1)
) -> np.ndarray:
    """View ``x`` (N, H, W, C) as sliding patches (N, Ho, Wo, kh, kw, C).

    The result is a strided **view**; callers must not write to it and should
    reshape/copy before mutating.
    """
    n, h, w, c = x.shape
    kh, kw = kernel
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride} does not fit input {x.shape}"
        )
    sn, sH, sW, sC = x.strides
    return as_strided(
        x,
        shape=(n, ho, wo, kh, kw, c),
        strides=(sn, sH * sh, sW * sw, sH, sW, sC),
        writeable=False,
    )


def fold_patches(
    patches: np.ndarray,
    out_shape: Tuple[int, int, int, int],
    stride: Tuple[int, int] = (1, 1),
) -> np.ndarray:
    """Adjoint of :func:`extract_patches`: scatter-add patches into an image.

    Parameters
    ----------
    patches:
        Array of shape (N, Ho, Wo, kh, kw, C).
    out_shape:
        Target (N, H, W, C) — the *padded* input shape of the forward conv.

    Notes
    -----
    The kernel loop runs only ``kh*kw`` times (≤ 25 for this project), with a
    fully vectorized strided-slice add per tap, so the cost is dominated by
    the adds, not the Python loop.
    """
    n, ho, wo, kh, kw, c = patches.shape
    sh, sw = stride
    out = np.zeros(out_shape, dtype=patches.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + sh * ho : sh, j : j + sw * wo : sw, :] += patches[
                :, :, :, i, j, :
            ]
    return out


def dilate2d(x: np.ndarray, stride: Tuple[int, int]) -> np.ndarray:
    """Insert ``stride-1`` zeros between spatial elements of (N, H, W, C).

    Used to express transposed convolution (FSRCNN's deconv head) in terms of
    ordinary convolution.
    """
    sh, sw = stride
    if sh == 1 and sw == 1:
        return x
    n, h, w, c = x.shape
    out = np.zeros((n, (h - 1) * sh + 1, (w - 1) * sw + 1, c), dtype=x.dtype)
    out[:, ::sh, ::sw, :] = x
    return out
