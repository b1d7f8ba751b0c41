"""Bitwise batch/single parity of ``CompiledModel.run(..., exact_batch=True)``.

The serving engine's cross-request batch coalescing promises byte-identical
output to unbatched serving.  That promise rests entirely on this layer:
a stacked batch through the planned executor must reproduce, per sample,
the exact bits of N independent single runs.  The naive stacked matmul
does NOT have this property (BLAS picks kernel blocking from the row
count), which is why exact mode issues the GEMM per sample — pinned here
against every deployable architecture the compiler captures.
"""

import numpy as np
import pytest

from repro.compile import compile_model
from repro.core import FSRCNN, SESR
from repro.deploy import quantize_sesr
from repro.obs.profiler import profile
from repro.train import predict_image


def _models():
    return [
        ("M3-x2", SESR.from_name("M3", scale=2).collapse()),
        ("M5-x2", SESR.from_name("M5", scale=2).collapse()),
        ("M5-x4", SESR.from_name("M5", scale=4).collapse()),
        ("M5-int8", quantize_sesr(SESR.from_name("M5", scale=2).collapse())),
        ("FSRCNN", FSRCNN(scale=2, d=20, s=8, m=2)),
    ]


@pytest.mark.parametrize("label,model", _models(),
                         ids=[m[0] for m in _models()])
@pytest.mark.parametrize("shape", [(24, 24), (17, 23)])
def test_exact_batch_bitwise_matches_singles(label, model, shape):
    """Each sample of an exact batch == its own singleton run, bitwise."""
    compiled = compile_model(model)
    rng = np.random.default_rng(0)
    batch = rng.random((5,) + shape + (1,)).astype(np.float32)
    out = compiled.run(batch, exact_batch=True)
    for i in range(batch.shape[0]):
        single = compiled.run(batch[i:i + 1])
        assert np.array_equal(out[i], single[0]), f"{label} sample {i}"


def test_exact_batch_of_one_is_plain_run():
    compiled = compile_model(SESR.from_name("M3", scale=2).collapse())
    rng = np.random.default_rng(1)
    x = rng.random((1, 20, 20, 1)).astype(np.float32)
    assert np.array_equal(compiled.run(x, exact_batch=True), compiled.run(x))


def test_exact_batch_matches_predict_image():
    """End-to-end: batched tiles == the CLI's per-tile predict path."""
    compiled = compile_model(SESR.from_name("M5", scale=2).collapse())
    rng = np.random.default_rng(2)
    tiles = rng.random((4, 28, 28)).astype(np.float32)
    out = np.clip(
        compiled.run(tiles[..., None], exact_batch=True)[..., 0], 0.0, 1.0
    )
    for i in range(4):
        assert np.array_equal(out[i], predict_image(compiled, tiles[i]))


def test_blas_exact_mode_pays_one_gemm_per_sample():
    """Documents what exactness costs: exact mode issues one BLAS GEMM
    per sample, so the GEMM count grows with the batch size."""
    compiled = compile_model(SESR.from_name("M5", scale=2).collapse())
    rng = np.random.default_rng(4)
    batch = rng.random((4, 20, 20, 1)).astype(np.float32)
    with profile() as prof:
        compiled.run(batch[:1], exact_batch=True)
    per_sample = prof.stats()["gemm.blas"].calls
    with profile() as prof:
        compiled.run(batch, exact_batch=True)
    assert prof.stats()["gemm.blas"].calls == 4 * per_sample


def test_stacked_matmul_would_not_be_exact():
    """Documents why exact mode exists: the naive stacked sgemm diverges.

    If this ever starts passing on some BLAS, exact mode is still correct
    — merely no longer the only way to get parity on that host.  It is
    xfail rather than a hard assert for exactly that reason.
    """
    compiled = compile_model(SESR.from_name("M5", scale=2).collapse())
    rng = np.random.default_rng(3)
    batch = rng.random((5, 24, 24, 1)).astype(np.float32)
    stacked = compiled.run(batch)  # one sgemm over m = N*h*w
    singles = np.concatenate(
        [compiled.run(batch[i:i + 1]) for i in range(5)]
    )
    if np.array_equal(stacked, singles):
        pytest.xfail("this BLAS build happens to be m-invariant")
    # Divergence is bounded (~1 ulp): quality-neutral, but not bytes.
    assert np.allclose(stacked, singles, atol=1e-5)
