"""Stacked inference == per-sample inference, byte for byte.

The serving engine's cross-request batch coalescing promises byte-identical
output to unbatched serving.  That promise rests on one rule in
:func:`repro.nn.ops.conv_gemm`: a conv's GEMM never spans two samples
while autograd does not record it, so every sample of a stacked forward,
eager or compiled, gets the bits of its own N=1 call.  A stacked sgemm
does NOT have this property (BLAS output bits depend on the row count
and on a row's offset inside the call), which is pinned here against
every deployable architecture.
"""

import numpy as np
import pytest

from repro import zoo
from repro.compile import compile_model
from repro.core import FSRCNN, SESR
from repro.deploy import quantize_sesr
from repro.nn import Tensor, conv2d, no_grad
from repro.nn.im2col import extract_patches
from repro.obs.profiler import profile
from repro.serve import ModelKey, ModelRegistry
from repro.train import predict_image

KEYS = [
    ModelKey(name, scale, precision=precision)
    for name in zoo.factory_names()
    for scale in (2, 4)
    for precision in ("fp32", "int8")
    if not (precision == "int8" and name.startswith("FSRCNN"))
]
REGISTRY = ModelRegistry()


def _models():
    return [
        ("M3-x2", SESR.from_name("M3", scale=2).collapse()),
        ("M5-x2", SESR.from_name("M5", scale=2).collapse()),
        ("M5-x4", SESR.from_name("M5", scale=4).collapse()),
        ("M5-int8", quantize_sesr(SESR.from_name("M5", scale=2).collapse())),
        ("FSRCNN", FSRCNN(scale=2, d=20, s=8, m=2)),
    ]


@pytest.mark.parametrize(
    "key", KEYS, ids=[f"{k.name}-x{k.scale}-{k.precision}" for k in KEYS]
)
def test_stacked_forward_matches_singles_eager_and_compiled(key):
    """For every deployable key: the eager stacked forward under
    ``no_grad`` == its per-sample forwards == the compiled stacked run."""
    model = REGISTRY.get(key)
    compiled = REGISTRY.get_compiled(key)
    for seed, shape in enumerate([(24, 24), (17, 23), (41, 9)]):
        rng = np.random.default_rng(seed)
        batch = rng.random((5,) + shape + (1,)).astype(np.float32)
        with no_grad():
            stacked = model(Tensor(batch)).data
            singles = [model(Tensor(batch[i:i + 1])).data[0]
                       for i in range(5)]
        compiled_stacked = compiled.run(batch)
        for i, single in enumerate(singles):
            assert np.array_equal(stacked[i], single), (shape, i)
            assert np.array_equal(compiled_stacked[i], single), (shape, i)


@pytest.mark.parametrize("label,model", _models(),
                         ids=[m[0] for m in _models()])
@pytest.mark.parametrize("shape", [(24, 24), (17, 23)])
def test_exact_batch_bitwise_matches_singles(label, model, shape):
    """Each sample of a compiled stacked run == its own N=1 run, bitwise."""
    compiled = compile_model(model)
    rng = np.random.default_rng(0)
    batch = rng.random((5,) + shape + (1,)).astype(np.float32)
    out = compiled.run(batch)
    for i in range(batch.shape[0]):
        single = compiled.run(batch[i:i + 1])
        assert np.array_equal(out[i], single[0]), f"{label} sample {i}"


def test_exact_batch_matches_predict_image():
    """End-to-end: batched tiles == the CLI's per-tile predict path."""
    compiled = compile_model(SESR.from_name("M5", scale=2).collapse())
    rng = np.random.default_rng(2)
    tiles = rng.random((4, 28, 28)).astype(np.float32)
    out = np.clip(compiled.run(tiles[..., None])[..., 0], 0.0, 1.0)
    for i in range(4):
        assert np.array_equal(out[i], predict_image(compiled, tiles[i]))


def test_blas_exact_mode_pays_one_gemm_per_sample():
    """Documents what the rule costs: one BLAS GEMM per sample per conv,
    so the GEMM count grows with the batch size, compiled and eager."""
    model = SESR.from_name("M5", scale=2).collapse()
    compiled = compile_model(model)
    rng = np.random.default_rng(4)
    batch = rng.random((4, 20, 20, 1)).astype(np.float32)
    with profile() as prof:
        compiled.run(batch[:1])
    per_sample = prof.stats()["gemm.blas"].calls
    assert per_sample == prof.stats()["conv2d"].calls
    with profile() as prof:
        compiled.run(batch)
    assert prof.stats()["gemm.blas"].calls == 4 * per_sample
    with profile() as prof, no_grad():
        model(Tensor(batch))
    assert prof.stats()["gemm.blas"].calls == 4 * per_sample


def test_recorded_conv_keeps_one_stacked_gemm():
    """A conv that autograd records (training) issues one GEMM for the
    batch; the same conv unrecorded issues one per sample."""
    rng = np.random.default_rng(5)
    x = Tensor(rng.random((3, 8, 8, 2)).astype(np.float32))
    w = Tensor(rng.random((3, 3, 2, 4)).astype(np.float32),
               requires_grad=True)
    with profile() as prof:
        conv2d(x, w).sum().backward()
    assert prof.stats()["gemm.blas"].calls == 1
    with profile() as prof, no_grad():
        conv2d(x, w)
    assert prof.stats()["gemm.blas"].calls == 3


def test_stacked_matmul_would_not_be_exact():
    """Documents why the rule exists: one sgemm over a conv's stacked
    ``cols`` diverges from sgemms over its per-sample row slices.

    SESR-M5's first (5×5, 1→16), trunk (3×3, 16→16) and tail (5×5, 16→4)
    conv shapes on two frame sizes.  Which of them diverge depends on the
    BLAS kernel; if none does, the rule is still correct — merely no
    longer the only way to get parity on that host.  It is xfail rather
    than a hard assert for exactly that reason.
    """
    diverged = 0
    for k, cin, cout in [(5, 1, 16), (3, 16, 16), (5, 16, 4)]:
        for shape in [(24, 24), (17, 23)]:
            rng = np.random.default_rng(3)
            x = rng.random((5,) + shape + (cin,)).astype(np.float32)
            p = k // 2
            xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
            cols = extract_patches(xp, (k, k), (1, 1)).reshape(
                -1, k * k * cin
            )
            wmat = (rng.standard_normal((k * k * cin, cout))
                    / k / np.sqrt(cin)).astype(np.float32)
            rows = shape[0] * shape[1]
            stacked = cols @ wmat
            singles = np.concatenate([
                cols[i * rows:(i + 1) * rows] @ wmat for i in range(5)
            ])
            diverged += not np.array_equal(stacked, singles)
            # Divergence is bounded (~1 ulp): quality-neutral, but not bytes.
            assert np.allclose(stacked, singles, atol=1e-5)
    if not diverged:
        pytest.xfail("this BLAS kernel happens to be m-invariant here")
