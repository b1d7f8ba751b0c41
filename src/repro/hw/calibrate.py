"""Calibration of the NPU model's free constants against Table 3.

The paper publishes five (runtime, DRAM) anchor rows produced by Arm's
proprietary Ethos-N78 estimator.  Our analytical model has three free
memory-system constants — DRAM bandwidth, SRAM residency threshold, and the
activation-compression ratio — which :func:`fit_spec` fits by least squares
on log-space residuals over all ten observables.  Compute-side constants
(2·10¹² MAC/s peak, 16-lane channel granularity) are architectural facts
and stay fixed.

The fitted values are frozen into :data:`repro.hw.spec.ETHOS_N78_4TOPS`;
a regression test re-runs the fit and checks it reproduces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .estimator import estimate
from .graph import InferenceGraph, fsrcnn_graph, sesr_hw_graph
from .spec import NPUSpec
from .tiling import estimate_tiled


@dataclass(frozen=True)
class Anchor:
    """One published Table 3 row."""

    name: str
    runtime_ms: float
    dram_mb: float
    macs_g: float  # published MAC count (sanity-checked, not fitted)


def anchor_rows() -> List[Tuple[Anchor, Callable[[NPUSpec], Tuple[float, float]]]]:
    """The five Table 3 anchors and evaluators returning (ms, MB)."""
    g_fsr_x2 = fsrcnn_graph(2, 1080, 1920)
    g_m5_x2 = sesr_hw_graph(16, 5, 2, 1080, 1920)
    g_m5_x4 = sesr_hw_graph(16, 5, 4, 1080, 1920)

    def full(graph: InferenceGraph) -> Callable[[NPUSpec], Tuple[float, float]]:
        def run(npu: NPUSpec) -> Tuple[float, float]:
            r = estimate(graph, npu)
            return r.runtime_ms, r.dram_mb

        return run

    def tiled(graph: InferenceGraph) -> Callable[[NPUSpec], Tuple[float, float]]:
        def run(npu: NPUSpec) -> Tuple[float, float]:
            r = estimate_tiled(graph, npu, 300, 400)
            return r.tile.runtime_ms, r.tile.dram_mb

        return run

    return [
        (Anchor("FSRCNN (x2) 1080p->4K", 167.38, 564.11, 54.0), full(g_fsr_x2)),
        (Anchor("SESR-M5 (x2) 1080p->4K", 27.22, 282.03, 28.0), full(g_m5_x2)),
        (Anchor("SESR-M5 (tiled, x2) 400x300", 1.26, 6.46, 1.62), tiled(g_m5_x2)),
        (Anchor("SESR-M5 (x4) 1080p->8K", 45.09, 389.86, 38.0), full(g_m5_x4)),
        (Anchor("SESR-M5 (tiled, x4) 400x300", 2.12, 9.84, 2.19), tiled(g_m5_x4)),
    ]


def _spec_from_params(params: np.ndarray, base: NPUSpec) -> NPUSpec:
    log_bw, log_sram, logit_comp = params
    return base.with_(
        dram_bandwidth=float(np.exp(log_bw)),
        sram_bytes=float(np.exp(log_sram)),
        compression_ratio=float(1.0 / (1.0 + np.exp(-logit_comp))),
    )


def residuals(npu: NPUSpec) -> Dict[str, Tuple[float, float]]:
    """Relative error (runtime, dram) per anchor for a given spec."""
    out: Dict[str, Tuple[float, float]] = {}
    for anchor, evaluator in anchor_rows():
        ms, mb = evaluator(npu)
        out[anchor.name] = (
            ms / anchor.runtime_ms - 1.0,
            mb / anchor.dram_mb - 1.0,
        )
    return out


def fit_spec(base: NPUSpec = NPUSpec()) -> NPUSpec:
    """Fit (bandwidth, SRAM, compression) to the Table 3 anchors."""
    # Imported here: scipy.optimize costs ~0.5 s, and `import repro` (every
    # server start) reaches this module.
    from scipy.optimize import least_squares

    rows = anchor_rows()

    def objective(params: np.ndarray) -> np.ndarray:
        npu = _spec_from_params(params, base)
        res = []
        for anchor, evaluator in rows:
            ms, mb = evaluator(npu)
            res.append(np.log(ms / anchor.runtime_ms))
            res.append(np.log(mb / anchor.dram_mb))
        return np.asarray(res)

    x0 = np.array([np.log(10e9), np.log(1e6), 0.0])
    fit = least_squares(objective, x0, method="lm")
    return _spec_from_params(fit.x, base).with_(name=f"{base.name}-calibrated")
