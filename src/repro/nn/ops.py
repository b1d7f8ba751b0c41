"""Differentiable neural-network primitives on :class:`repro.nn.Tensor`.

Layout conventions (TensorFlow-style, matching the paper's Algorithm 1):

* activations: ``(N, H, W, C)`` (NHWC)
* convolution weights: ``(kh, kw, C_in, C_out)`` (HWIO)
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import profiler as _profiler
from .im2col import dilate2d, extract_patches, fold_patches
from .tensor import Tensor, as_tensor, records

Padding = Union[str, int, Sequence[Tuple[int, int]]]


def resolve_padding(
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Padding,
    in_size: Optional[Tuple[int, int]] = None,
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Resolve a padding spec to ``((top, bottom), (left, right))``.

    ``"same"`` follows TensorFlow semantics — total padding per axis is
    ``max((ceil(n/s) − 1)·s + k − n, 0)``, split with the extra pixel at the
    end — which is what the SESR reference implementation uses.  When
    ``in_size`` is omitted the stride-1 formula ``k − 1`` applies (the two
    coincide for stride 1).  ``"valid"`` pads nothing.
    """
    kh, kw = kernel
    if padding == "valid":
        return (0, 0), (0, 0)
    if padding == "same":

        def total(n: Optional[int], k: int, s: int) -> int:
            if n is None or s == 1:
                return k - 1
            return max((-(-n // s) - 1) * s + k - n, 0)

        nh, nw = in_size if in_size is not None else (None, None)
        th = total(nh, kh, stride[0])
        tw = total(nw, kw, stride[1])
        return (th // 2, th - th // 2), (tw // 2, tw - tw // 2)
    if isinstance(padding, int):
        return (padding, padding), (padding, padding)
    (pt, pb), (pl, pr) = padding
    return (int(pt), int(pb)), (int(pl), int(pr))


def _normalize_stride(stride: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    return (stride, stride) if isinstance(stride, int) else tuple(stride)


def conv2d(
    x: Tensor,
    w: Tensor,
    b: Optional[Tensor] = None,
    stride: Union[int, Tuple[int, int]] = 1,
    padding: Padding = "same",
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input activations, shape ``(N, H, W, C_in)``.
    w:
        Filter bank, shape ``(kh, kw, C_in/groups, C_out)``.
    b:
        Optional bias, shape ``(C_out,)``.
    stride, padding:
        Standard conv hyper-parameters; padding is ``"same"``, ``"valid"``,
        an int, or explicit per-side pairs.
    groups:
        Grouped convolution (used by lightweight-SISR baselines such as
        CARN variants); input and output channels are split into ``groups``
        independent convolutions.

    Notes
    -----
    The forward is im2col + BLAS sgemm.  A conv that autograd does not
    record runs :func:`conv_gemm`, which the inference executor
    (:mod:`repro.compile.executor`) calls too: one band-sized ``cols`` and
    one sgemm per band of whole output rows of each sample, so each sample
    of a stacked inference forward is byte-identical to its own N=1 call.
    A recorded (training) conv builds the full ``cols``, which its
    backward reuses, and issues one stacked sgemm (``docs/compiler.md``).
    """
    x, w = as_tensor(x), as_tensor(w)
    if groups > 1:
        return _grouped_conv2d(x, w, b, stride, padding, groups)
    if x.ndim != 4:
        raise ValueError(f"conv2d expects NHWC input, got shape {x.shape}")
    if w.ndim != 4:
        raise ValueError(f"conv2d expects HWIO weight, got shape {w.shape}")
    kh, kw, cin, cout = w.shape
    if x.shape[3] != cin:
        raise ValueError(
            f"input channels {x.shape[3]} do not match weight C_in {cin}"
        )
    sh, sw = _normalize_stride(stride)
    (pt, pb), (pl, pr) = resolve_padding(
        (kh, kw), (sh, sw), padding, in_size=(x.shape[1], x.shape[2])
    )
    if b is not None:
        b = as_tensor(b)
    parents = (x, w) if b is None else (x, w, b)

    # Profiling guard: one module-attribute load + None check when off
    # (see repro.obs.profiler — this is the entire disabled-path overhead).
    prof = _profiler.ACTIVE
    if prof is not None:
        t0 = time.perf_counter()
    xd = x.data
    if pt or pb or pl or pr:
        xp = np.pad(xd, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    else:
        xp = xd
    wmat = w.data.reshape(kh * kw * cin, cout)
    if records(parents):
        # One stacked GEMM over the full cols, which the backward reuses.
        patches = extract_patches(xp, (kh, kw), (sh, sw))  # (N,Ho,Wo,kh,kw,C)
        n, ho, wo = patches.shape[:3]
        cols = patches.reshape(n * ho * wo, kh * kw * cin)
        if prof is not None:
            prof.record("im2col", time.perf_counter() - t0)
        out_data = _gemm(cols, wmat).reshape(n, ho, wo, cout)
    else:
        out_data = conv_gemm(xp, wmat, (kh, kw), (sh, sw))
        n, ho, wo = out_data.shape[:3]
    if b is not None:
        out_data = out_data + b.data
    if prof is not None:
        prof.record(
            "conv2d",
            time.perf_counter() - t0,
            macs=n * ho * wo * kh * kw * cin * cout,
        )

    def backward(g: np.ndarray) -> None:
        prof_b = _profiler.ACTIVE
        if prof_b is not None:
            tb = time.perf_counter()
        macs_b = 0
        gmat = g.reshape(n * ho * wo, cout)
        if w.requires_grad:
            gw = cols.T @ gmat
            w._send(gw.reshape(kh, kw, cin, cout))
            macs_b += n * ho * wo * kh * kw * cin * cout
        if x.requires_grad:
            gcols = gmat @ wmat.T
            gpatches = gcols.reshape(n, ho, wo, kh, kw, cin)
            gxp = fold_patches(gpatches, xp.shape, (sh, sw))
            h, wdt = xd.shape[1], xd.shape[2]
            x._send(gxp[:, pt : pt + h, pl : pl + wdt, :])
            macs_b += n * ho * wo * kh * kw * cin * cout
        if b is not None and b.requires_grad:
            b._send(g.sum(axis=(0, 1, 2)))
        if prof_b is not None:
            prof_b.record(
                "conv2d_bwd", time.perf_counter() - tb, macs=macs_b
            )

    return Tensor._result(out_data, parents, backward)


#: Output pixels per band of :func:`conv_gemm`: its ``cols`` scratch holds
#: one band, so the im2col write and the sgemm read stay in L2.  Whole
#: compiled SESR-M5 ×2 runs were fastest at 384–512 and 10–20% slower at
#: 1024–2048, where the tail conv's band (1.6 MiB at 1024) crowds a 2 MiB
#: L2; below 256 the per-band call overhead shows (``docs/compiler.md`` §4).
BAND_PIXELS = 512


def band_rows(wo: int) -> int:
    """Output rows per :func:`conv_gemm` band for a ``wo``-wide output."""
    return max(1, BAND_PIXELS // wo)


def conv_gemm(
    xp: np.ndarray,
    wmat: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int] = (1, 1),
    out: Optional[np.ndarray] = None,
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """An unrecorded conv's forward: banded im2col + one sgemm per band.

    ``xp`` is the padded ``(N, H, W, C)`` input and ``wmat`` the
    ``(kh·kw·C, Cout)`` weight matrix.  For each sample and each band of
    :func:`band_rows` whole output rows, the band's patches are copied
    into ``cols`` (a flat scratch of at least one band, allocated when
    omitted) and one ``np.matmul`` writes that band's rows of ``out``
    (a C-contiguous ``(N, Ho, Wo, Cout)`` array, allocated when omitted).

    The split is the only rule that sets bits.  BLAS output bits depend
    on the call's row count and on a row's offset inside the call, so a
    GEMM that never spans two samples makes, for each sample, the very
    calls its N=1 run makes (stacked == single), and :func:`conv2d` and
    the compiled executor get the same bits because both call this.  A
    sample of at most :data:`BAND_PIXELS` output pixels is one band.
    Recorded (training) convs do not come here: :func:`conv2d` keeps their
    full ``cols`` for the backward and issues one stacked sgemm.

    With a profiler active the conv records one ``im2col`` (its band
    copies summed) and one ``gemm.blas`` per sgemm, both nested in
    ``conv2d``.
    """
    patches = extract_patches(xp, kernel, stride)  # (N,Ho,Wo,kh,kw,C)
    n, ho, wo = patches.shape[:3]
    k, cout = wmat.shape
    if out is None:
        out = np.empty((n, ho, wo, cout), dtype=np.result_type(xp, wmat))
    rows = band_rows(wo)
    if cols is None:
        cols = np.empty(min(rows, ho) * wo * k, dtype=xp.dtype)
    prof = _profiler.ACTIVE
    copy_s = 0.0
    for i in range(n):
        for r0 in range(0, ho, rows):
            band = patches[i, r0:r0 + rows]
            m = band.shape[0] * wo
            if prof is not None:
                t0 = time.perf_counter()
            bcols = cols[:m * k].reshape(band.shape)
            np.copyto(bcols, band)
            if prof is not None:
                copy_s += time.perf_counter() - t0
            _gemm(bcols.reshape(m, k), wmat,
                  out[i, r0:r0 + rows].reshape(m, cout))
    if prof is not None:
        prof.record("im2col", copy_s)
    return out


def _gemm(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``a @ b``, the one forward conv sgemm; records ``gemm.blas``."""
    prof = _profiler.ACTIVE
    if prof is None:
        return np.matmul(a, b, out=out)
    t0 = time.perf_counter()
    out = np.matmul(a, b, out=out)
    prof.record("gemm.blas", time.perf_counter() - t0)
    return out


def _grouped_conv2d(
    x: Tensor,
    w: Tensor,
    b: Optional[Tensor],
    stride: Union[int, Tuple[int, int]],
    padding: Padding,
    groups: int,
) -> Tensor:
    """Grouped convolution composed from per-group dense convolutions."""
    from .tensor import concatenate

    cin, cout = x.shape[3], w.shape[3]
    if cin % groups or cout % groups:
        raise ValueError(
            f"channels ({cin} in, {cout} out) not divisible by groups={groups}"
        )
    if w.shape[2] != cin // groups:
        raise ValueError(
            f"grouped weight C_in must be {cin // groups}, got {w.shape[2]}"
        )
    gc_in, gc_out = cin // groups, cout // groups
    outs = []
    for g in range(groups):
        xg = x[:, :, :, g * gc_in : (g + 1) * gc_in]
        wg = w[:, :, :, g * gc_out : (g + 1) * gc_out]
        bg = None if b is None else as_tensor(b)[g * gc_out : (g + 1) * gc_out]
        outs.append(conv2d(xg, wg, bg, stride=stride, padding=padding))
    return concatenate(outs, axis=3)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
) -> Tensor:
    """Normalise NHWC activations with given per-channel statistics."""
    x = as_tensor(x)
    inv = Tensor((1.0 / np.sqrt(var + eps)).astype(np.float32))
    shift = Tensor(mean.astype(np.float32))
    return (x - shift) * inv * as_tensor(gamma) + as_tensor(beta)


def dilate(x: Tensor, stride: Union[int, Tuple[int, int]]) -> Tensor:
    """Differentiable zero-insertion between spatial elements of NHWC ``x``."""
    x = as_tensor(x)
    sh, sw = _normalize_stride(stride)
    if sh == 1 and sw == 1:
        return x
    out_data = dilate2d(x.data, (sh, sw))

    def backward(g: np.ndarray) -> None:
        x._send(g[:, ::sh, ::sw, :])

    return Tensor._result(out_data, (x,), backward)


def conv2d_transpose(
    x: Tensor,
    w: Tensor,
    b: Optional[Tensor] = None,
    stride: Union[int, Tuple[int, int]] = 2,
) -> Tensor:
    """Transposed convolution with TF ``SAME`` output geometry (out = s·in).

    Implemented via the **sub-pixel decomposition** (how NPU compilers lower
    deconvolution — see :mod:`repro.hw`): for each of the ``s²`` output
    phases, the full kernel subsamples to a small per-phase kernel applied
    as an ordinary stride-1 convolution at LR resolution; a depth-to-space
    interleave then assembles the HR output.  This avoids computing over
    the zero-inserted grid of the naive form (a 16× MAC waste at stride 4),
    and — being composed of differentiable primitives — gets its backward
    pass from autograd.  Used by the FSRCNN baseline's 9×9 deconv head.

    The naive zero-insertion form is kept as
    :func:`conv2d_transpose_reference` for cross-validation.
    """
    x, w = as_tensor(x), as_tensor(w)
    kh, kw, _, cout = w.shape
    sh, sw = _normalize_stride(stride)
    if kh < sh or kw < sw:
        raise ValueError("kernel must be at least as large as the stride")
    if sh != sw:
        # The depth-to-space interleave assumes a square stride; the naive
        # form handles the anisotropic case.
        return conv2d_transpose_reference(x, w, b=b, stride=stride)
    from .tensor import concatenate

    # Geometry of the equivalent zero-insertion form (see the reference
    # implementation): total 'same' pad of the adjoint forward conv.
    ph = kh - 1 - (kh - sh) // 2
    pw = kw - 1 - (kw - sw) // 2
    f = w.flip((0, 1))

    phases = []
    for rh in range(sh):
        q0h = (ph - rh) % sh
        taps_h = -(-(kh - q0h) // sh)
        dh = (rh + q0h - ph) // sh
        for rw in range(sw):
            q0w = (pw - rw) % sw
            taps_w = -(-(kw - q0w) // sw)
            dw = (rw + q0w - pw) // sw
            xp = x.pad((
                (0, 0),
                (-dh, dh + taps_h - 1),
                (-dw, dw + taps_w - 1),
                (0, 0),
            ))
            fk = f[q0h :: sh, q0w :: sw][:taps_h, :taps_w]
            phases.append(conv2d(xp, fk, padding="valid"))
    out = depth_to_space(concatenate(phases, axis=3), sh)
    if b is not None:
        out = out + as_tensor(b)
    return out


def conv2d_transpose_reference(
    x: Tensor,
    w: Tensor,
    b: Optional[Tensor] = None,
    stride: Union[int, Tuple[int, int]] = 2,
) -> Tensor:
    """Naive transposed convolution (zero insertion + full-kernel conv).

    The textbook form — dilate, pad, convolve with the spatially flipped
    kernel — kept as the gold standard the fast sub-pixel path is tested
    against.
    """
    x, w = as_tensor(x), as_tensor(w)
    kh, kw, _, _ = w.shape
    sh, sw = _normalize_stride(stride)
    if kh < sh or kw < sw:
        raise ValueError("kernel must be at least as large as the stride")
    # Forward conv with SAME padding and stride s pads (k - s) in total.
    pbh = (kh - sh) // 2
    pbw = (kw - sw) // 2
    # The adjoint pads (k - 1 - p_begin) before and (k - 1 - p_end) after.
    pads = (
        (0, 0),
        (kh - 1 - pbh, kh - 1 - (kh - sh - pbh)),
        (kw - 1 - pbw, kw - 1 - (kw - sw - pbw)),
        (0, 0),
    )
    xd = dilate(x, (sh, sw)).pad(pads)
    return conv2d(xd, w.flip((0, 1)), b=b, stride=1, padding="valid")


def depth_to_space(x: Tensor, block: int) -> Tensor:
    """Pixel-shuffle: ``(N, H, W, C·r²) -> (N, H·r, W·r, C)``.

    Matches ``tf.nn.depth_to_space`` channel ordering, i.e. the channel index
    decomposes as ``(i·r + j)·C + c`` for output offset ``(i, j)``.
    """
    x = as_tensor(x)
    n, h, w, c = x.shape
    r = int(block)
    if c % (r * r) != 0:
        raise ValueError(f"channels {c} not divisible by block²={r * r}")
    co = c // (r * r)
    out = x.reshape(n, h, w, r, r, co)
    out = out.transpose((0, 1, 3, 2, 4, 5))  # (N, H, r, W, r, Co)
    return out.reshape(n, h * r, w * r, co)


def space_to_depth(x: Tensor, block: int) -> Tensor:
    """Inverse of :func:`depth_to_space`."""
    x = as_tensor(x)
    n, h, w, c = x.shape
    r = int(block)
    if h % r or w % r:
        raise ValueError(f"spatial dims {(h, w)} not divisible by block {r}")
    out = x.reshape(n, h // r, r, w // r, r, c)
    out = out.transpose((0, 1, 3, 2, 4, 5))  # (N, H/r, W/r, r, r, C)
    return out.reshape(n, h // r, w // r, r * r * c)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).maximum(0.0)


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """Parametric ReLU with per-channel slope ``alpha`` (shape ``(C,)``)."""
    x = as_tensor(x)
    return x.maximum(0.0) + as_tensor(alpha) * x.minimum(0.0)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically-stable logistic sigmoid."""
    x = as_tensor(x)
    # sigmoid(x) = exp(min(x,0)) / (1 + exp(-|x|))
    neg = x.minimum(0.0)
    return neg.exp() / ((x.abs() * -1.0).exp() + 1.0)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (max-shifted for stability)."""
    x = as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))  # constant
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def compose_conv_1x1(w_kxk: Tensor, w_1x1: Tensor) -> Tensor:
    """Collapse ``k×k (x→p)`` followed by ``1×1 (p→y)`` into one ``k×k (x→y)``.

    This is the weight-space composition at the heart of the Collapsible
    Linear Block: because no non-linearity separates the two convolutions,

        conv1x1(convkxk(X, W1), W2) == convkxk(X, compose(W1, W2)).

    It is expressed with differentiable matmul/reshape ops, so the efficient
    training path (paper §3.3 / Fig. 3) — forward in collapsed space,
    backward into the expanded weights — works through plain autograd.
    """
    w_kxk, w_1x1 = as_tensor(w_kxk), as_tensor(w_1x1)
    kh, kw, cin, p = w_kxk.shape
    p2, cout = w_1x1.shape[2], w_1x1.shape[3]
    if w_1x1.shape[0] != 1 or w_1x1.shape[1] != 1:
        raise ValueError(f"second weight must be 1×1, got {w_1x1.shape}")
    if p != p2:
        raise ValueError(f"intermediate channels mismatch: {p} vs {p2}")
    flat = w_kxk.reshape(kh * kw * cin, p) @ w_1x1.reshape(p, cout)
    return flat.reshape(kh, kw, cin, cout)


def compose_bias_1x1(b_inner: Tensor, w_1x1: Tensor, b_outer: Tensor) -> Tensor:
    """Fold the inner conv's bias through the 1×1 projection.

    A constant per-channel offset ``b_inner`` after the k×k conv becomes
    ``W2ᵀ · b_inner + b_outer`` after the 1×1 conv.
    """
    b_inner, w_1x1, b_outer = map(as_tensor, (b_inner, w_1x1, b_outer))
    p, cout = w_1x1.shape[2], w_1x1.shape[3]
    folded = b_inner.reshape(1, p) @ w_1x1.reshape(p, cout)
    return folded.reshape(cout) + b_outer
