"""Compiled-vs-eager micro-benchmark of the collapsed inference path.

Honest repeated-measurement timing of the M5 ×2 serving tile path: the
same collapsed network runs through the eager ``repro.nn`` forward and
through the :mod:`repro.compile` planned-buffer executor (which is
bit-identical — see ``tests/compile/test_executor.py``).  Alongside
wall-clock the table reports the planner's peak intermediate bytes vs the
eager per-op-allocation peak.  Results are committed as
``results/compile_micro.json``.
"""

import json
import os
import time

import numpy as np
import pytest

from common import FAST, results_path
from repro.compile import compile_model
from repro.core import SESR
from repro.deploy import quantize_sesr
from repro.nn import Tensor, no_grad
from repro.utils import format_table

REPEATS = 10 if FAST else 40
SIZES = (48, 96) if FAST else (48, 96, 192)


def _median_ms(fn, repeats=REPEATS) -> float:
    fn()  # warm-up: arena/cols allocation, BLAS thread pools
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples) * 1000)


def _bench_model(model, compiled, size: int) -> dict:
    rng = np.random.default_rng(size)
    x = rng.random((1, size, size, 1)).astype(np.float32)

    def eager():
        with no_grad():
            model(Tensor(x))

    eager_ms = _median_ms(eager)
    compiled_ms = _median_ms(lambda: compiled.run(x))
    mem = compiled.memory_stats(size, size)
    return {
        "size": size,
        "eager_ms": round(eager_ms, 4),
        "compiled_ms": round(compiled_ms, 4),
        "speedup": round(eager_ms / compiled_ms, 4),
        "arena_bytes": mem["arena_bytes"],
        "naive_bytes": mem["naive_bytes"],
    }


@pytest.mark.bench
def test_compile_micro():
    model = SESR.from_name("M5", scale=2, expansion=16).collapse()
    model.eval()
    cases = {
        "fp32": (model, compile_model(model)),
    }
    if not FAST:
        quantized = quantize_sesr(model)
        cases["int8"] = (quantized, compile_model(quantized))

    results = {
        "model": "SESR-M5",
        "scale": 2,
        "repeats": REPEATS,
        "cases": {
            name: [_bench_model(m, c, size) for size in SIZES]
            for name, (m, c) in cases.items()
        },
    }

    rows = [
        [name, r["size"], f"{r['eager_ms']:.2f}", f"{r['compiled_ms']:.2f}",
         f"{r['speedup']:.2f}x", f"{r['arena_bytes']:,}",
         f"{r['naive_bytes']:,}"]
        for name, rs in results["cases"].items()
        for r in rs
    ]
    text = format_table(
        ["precision", "LR size", "eager ms", "compiled ms", "speedup",
         "arena B", "naive B"],
        rows,
        title=f"Compiled vs eager forward — SESR-M5 x2 "
              f"(host: {os.cpu_count()} cores)",
    )
    print("\n" + text)
    with open(results_path("compile_micro.json"), "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")

    # The planner's win is deterministic; pin it hard.
    for rs in results["cases"].values():
        for r in rs:
            assert r["arena_bytes"] < r["naive_bytes"]
    # Wall-clock is host-dependent; require the 96x96 serving-tile case
    # (the shape `repro serve` fans out by default) to not regress, with
    # slack for noisy CI hosts.
    tile = next(r for r in results["cases"]["fp32"] if r["size"] == 96)
    assert tile["compiled_ms"] < tile["eager_ms"] * 1.1
