"""Banded im2col: the band boundaries of :func:`repro.nn.ops.conv_gemm`.

Every conv that autograd does not record builds ``cols`` one band of
whole output rows at a time (``band_rows(wo)`` rows of one sample) and
issues one sgemm per band.  Eager and compiled inference share that
split, so eager == compiled and stacked == single must hold where a
sample spans several bands, where its last band is ragged, and where one
row is wider than a band.  The arena's ``cols`` holds one band, not the
frame.
"""

import math

import numpy as np
import pytest

from repro import zoo
from repro.compile import compile_model
from repro.core import SESR
from repro.nn import Tensor, no_grad
from repro.nn.im2col import extract_patches
from repro.nn.ops import BAND_PIXELS, band_rows, conv_gemm
from repro.obs.profiler import profile
from repro.serve import ModelKey, ModelRegistry

KEYS = [
    ModelKey(name, scale, precision=precision)
    for name in zoo.factory_names()
    for scale in (2, 4)
    for precision in ("fp32", "int8")
    if not (precision == "int8" and name.startswith("FSRCNN"))
]
REGISTRY = ModelRegistry()

#: 3 full bands plus a ragged one-row band.
_W = 37
MULTI_BAND = (3 * band_rows(_W) + 1, _W)
#: Rows wider than a band: one row per band, three bands.
WIDE = (3, BAND_PIXELS + 3)


@pytest.mark.parametrize(
    "key", KEYS, ids=[f"{k.name}-x{k.scale}-{k.precision}" for k in KEYS]
)
def test_eager_compiled_and_stacked_agree_across_bands(key):
    h, w = MULTI_BAND
    assert math.ceil(h / band_rows(w)) >= 4 and h % band_rows(w) == 1
    assert band_rows(WIDE[1]) == 1
    model = REGISTRY.get(key)
    compiled = REGISTRY.get_compiled(key)
    for seed, shape in enumerate([MULTI_BAND, WIDE]):
        rng = np.random.default_rng(seed)
        batch = rng.random((3,) + shape + (1,)).astype(np.float32)
        with no_grad():
            stacked = model(Tensor(batch)).data
            singles = [model(Tensor(batch[i:i + 1])).data[0]
                       for i in range(3)]
        compiled_stacked = compiled.run(batch)
        for i, single in enumerate(singles):
            assert np.array_equal(stacked[i], single), (shape, i)
            assert np.array_equal(compiled_stacked[i], single), (shape, i)
            assert np.array_equal(compiled.run(batch[i:i + 1])[0], single)


@pytest.mark.parametrize("stride", [(1, 1), (2, 2)])
@pytest.mark.parametrize("shape", [(9, 11), MULTI_BAND, WIDE])
def test_conv_gemm_is_one_sgemm_per_band(shape, stride):
    """Each band's rows are the bits of that band's own sgemm, and the
    whole product matches the unbanded one within float rounding."""
    rng = np.random.default_rng(7)
    xp = rng.random((2, shape[0] + 2, shape[1] + 2, 3)).astype(np.float32)
    wmat = rng.standard_normal((27, 5)).astype(np.float32)
    out = conv_gemm(xp, wmat, (3, 3), stride)
    patches = extract_patches(xp, (3, 3), stride)
    n, ho, wo = patches.shape[:3]
    assert out.shape == (n, ho, wo, 5)
    rows = band_rows(wo)
    for i in range(n):
        for r0 in range(0, ho, rows):
            band = patches[i, r0:r0 + rows].reshape(-1, 27)
            ref = (band @ wmat).reshape(-1, wo, 5)
            assert np.array_equal(out[i, r0:r0 + rows], ref), (i, r0)
    unbanded = patches.reshape(-1, 27) @ wmat
    assert np.allclose(out.reshape(-1, 5), unbanded, atol=1e-5)


def test_conv_gemm_keeps_the_input_dtype():
    rng = np.random.default_rng(8)
    xp = rng.random((1, 6, 6, 2))  # float64
    wmat = rng.random((18, 4))
    out = conv_gemm(xp, wmat, (3, 3))
    assert out.dtype == np.float64
    ref = extract_patches(xp, (3, 3)).reshape(-1, 18) @ wmat
    assert np.array_equal(out.reshape(-1, 4), ref)


def test_1080p_scratch_holds_one_band():
    """A full-HD frame's scratch stays under 400 MiB (it was 3,553 MiB
    with a frame-sized ``cols``); ``cols`` is one one-row band of the
    widest-``k`` conv.  Nothing is allocated."""
    compiled = compile_model(SESR.from_name("M5", scale=2).collapse())
    assert compiled.memory_stats(1080, 1920)["scratch_bytes"] < 400 * 2**20
    assert compiled._layout(1, 1080, 1920)["cols"] == 1920 * 5 * 5 * 16
    # cols does not grow with the frame height or the batch.
    assert compiled._layout(3, 2160, 1920)["cols"] == 1920 * 5 * 5 * 16


def test_profiler_records_one_gemm_per_band():
    model = SESR.from_name("M5", scale=2).collapse()
    compiled = compile_model(model)
    h, w = MULTI_BAND
    bands = math.ceil(h / band_rows(w))
    x = np.random.default_rng(9).random((2, h, w, 1)).astype(np.float32)
    for run in (lambda: compiled.run(x), lambda: model(Tensor(x))):
        with profile() as prof, no_grad():
            run()
        st = prof.stats()
        convs = st["conv2d"].calls
        assert convs == 7  # first 5x5, five 3x3, tail 5x5
        assert st["im2col"].calls == convs
        assert st["gemm.blas"].calls == convs * 2 * bands
