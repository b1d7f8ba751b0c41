"""Shared infrastructure for the benchmark harness.

Every table and figure of the paper has a bench module in this directory.
Quality benches train models under the §5.1 protocol scaled down for CPU
(see :data:`BENCH_CONFIG`); the scale-down is uniform across models, so the
*orderings* the paper reports are preserved while absolute PSNR differs
(synthetic data, fewer steps).  Set ``REPRO_BENCH_FAST=1`` for a quick smoke
pass of the whole harness; its tables go to the gitignored
``benchmarks/results-fast/`` (:func:`results_path`), so a smoke run never
overwrites the committed full-size ``benchmarks/results/``.

Trained models are cached per pytest session so benches that share a model
(e.g. Table 1 and Table 2's ×2→×4 transfer) train it once.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.datasets import benchmark_suites
from repro.train import ExperimentConfig, bicubic_baseline, run_experiment
from repro.utils import format_table

FAST = bool(int(os.environ.get("REPRO_BENCH_FAST", "0")))

#: Where this run's tables, JSON and panels go: the committed ``results/``
#: at full size, the gitignored ``results-fast/`` for FAST smoke runs.
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "results-fast" if FAST else "results",
)


def results_path(*parts: str) -> str:
    """Path of a result file under :data:`RESULTS_DIR` (its directory is
    created); every bench writes through this."""
    path = os.path.join(RESULTS_DIR, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path

#: suites evaluated by the quality benches (the paper's six datasets).
SUITE_NAMES = ("set5", "set14", "bsd100", "urban100", "manga109", "div2k-val")
#: map suite names to the zoo registry's dataset keys.
SUITE_TO_ZOO = {
    "set5": "set5", "set14": "set14", "bsd100": "bsd100",
    "urban100": "urban100", "manga109": "manga109", "div2k-val": "div2k",
}

EVAL_SIZE = (96, 96)
EVAL_IMAGES = 3 if FAST else 6


def train_config(scale: int = 2) -> ExperimentConfig:
    """The scaled-down §5.1 protocol used by all quality benches."""
    if FAST:
        return ExperimentConfig(
            scale=scale, epochs=2, train_images=4, train_size=(64, 64),
            patch_size=16, crops_per_image=8, batch_size=8, lr=2e-3,
        )
    return ExperimentConfig(
        scale=scale, epochs=25, train_images=12, train_size=(96, 96),
        patch_size=16, crops_per_image=16, batch_size=8, lr=1e-3,
    )


def finetune_config(scale: int) -> ExperimentConfig:
    """Schedule for ×4 heads warm-started from ×2 trunks.

    The paper's §5.1 protocol runs the *full* schedule from the ×2
    initialisation (the warm start buys quality, not steps); the ×4
    fine-tune uses the paper's own lr (5e-4) plus gradient clipping —
    the fresh 16-channel head on a pretrained deep trunk is the least
    stable configuration at this compressed budget (M11 diverges at 1e-3).
    """
    cfg = train_config(scale)
    cfg.lr = 5e-4
    cfg.grad_clip = 1.0
    return cfg


def eval_suites(scale: int):
    return benchmark_suites(
        scale, names=SUITE_NAMES, size=EVAL_SIZE, n_images=EVAL_IMAGES
    )


class ModelResultCache:
    """Session cache: (name, scale) -> (model, {suite: {psnr, ssim}})."""

    def __init__(self) -> None:
        self._store: Dict[Tuple[str, int], Tuple[object, Dict]] = {}
        self._suites: Dict[int, Dict] = {}

    def suites(self, scale: int):
        if scale not in self._suites:
            self._suites[scale] = eval_suites(scale)
        return self._suites[scale]

    def bicubic(self, scale: int) -> Dict[str, Dict[str, float]]:
        key = ("Bicubic", scale)
        if key not in self._store:
            metrics = bicubic_baseline(self.suites(scale), scale)
            self._store[key] = (None, metrics)
        return self._store[key][1]

    def get(
        self,
        name: str,
        scale: int,
        factory: Callable[[], object],
        config: Optional[ExperimentConfig] = None,
    ) -> Tuple[object, Dict[str, Dict[str, float]]]:
        """Train-and-evaluate ``factory()`` once per session."""
        key = (name, scale)
        if key not in self._store:
            model = factory()
            cfg = config or train_config(scale)
            result = run_experiment(model, cfg, self.suites(scale))
            self._store[key] = (model, result.metrics)
        return self._store[key]

    def put(self, name: str, scale: int, model, metrics) -> None:
        self._store[(name, scale)] = (model, metrics)

    def has(self, name: str, scale: int) -> bool:
        return (name, scale) in self._store


def mean_psnr(metrics: Dict[str, Dict[str, float]]) -> float:
    """Mean PSNR across the evaluation suites."""
    return float(np.mean([m["psnr"] for m in metrics.values()]))


def quality_row(metrics: Dict[str, Dict[str, float]]) -> list:
    """One table row of 'psnr/ssim' cells in suite order."""
    return [
        f"{metrics[s]['psnr']:.2f}/{metrics[s]['ssim']:.4f}"
        for s in SUITE_NAMES
    ]


def emit(title: str, headers, rows, filename: str) -> str:
    """Print a result table and persist it under :data:`RESULTS_DIR`."""
    text = format_table(headers, rows, title=title)
    print("\n" + text)
    with open(results_path(filename), "w") as fh:
        fh.write(text + "\n")
    return text
