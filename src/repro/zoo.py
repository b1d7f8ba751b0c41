"""Model zoo: every network of Tables 1–2 and Figs. 1(a)/(b).

Each :class:`ZooEntry` carries

* the paper's **reported** parameters / MACs / PSNR / SSIM (transcribed from
  Tables 1 and 2 — the ``-/-`` cells are ``None``),
* a **spec builder** (our own layer-level model) where the architecture is
  publicly specified well enough to recompute the parameter/MAC columns
  (all SESR variants, FSRCNN, VDSR), and
* a **factory** for the models we can actually train in this repo
  (SESR family, FSRCNN).

Benches use the registry to print the paper's rows next to measured rows and
to place every network on the Fig. 1(a) Pareto plot and the Fig. 1(b) NPU
throughput chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core.fsrcnn import FSRCNN
from .core.sesr import SESR
from .metrics.complexity import (
    LayerSpec,
    count_params,
    fsrcnn_specs,
    macs_to_720p,
    sesr_specs,
    vdsr_specs,
)

Quality = Tuple[Optional[float], Optional[float]]  # (PSNR, SSIM)

DATASETS = ("set5", "set14", "bsd100", "urban100", "manga109", "div2k")
REGIMES = ("small", "medium", "large")


@dataclass(frozen=True)
class ZooEntry:
    """One row of the paper's result tables."""

    name: str
    regime: str
    #: reported parameter count (in K) per scale, from Tables 1–2.
    reported_params_k: Dict[int, Optional[float]]
    #: reported MACs (in G, to 720p output) per scale.
    reported_macs_g: Dict[int, Optional[float]]
    #: reported quality: scale -> dataset -> (PSNR, SSIM).
    reported_quality: Dict[int, Dict[str, Quality]]
    #: layer-spec builder (scale -> specs) when the architecture is modelled.
    spec_fn: Optional[Callable[[int], List[LayerSpec]]] = None
    #: trainable-model factory (scale, seed -> Module) when implemented here.
    factory: Optional[Callable[..., object]] = None

    def computed_params(self, scale: int) -> Optional[int]:
        if self.spec_fn is None:
            return None
        return count_params(self.spec_fn(scale))

    def computed_macs_720p(self, scale: int) -> Optional[int]:
        if self.spec_fn is None:
            return None
        return macs_to_720p(self.spec_fn(scale), scale)


def _q(psnr: Optional[float], ssim: Optional[float]) -> Quality:
    return (psnr, ssim)


def _sesr_factory(f: int, m: int) -> Callable[..., SESR]:
    def make(scale: int = 2, seed: int = 0, **kwargs) -> SESR:
        return SESR(scale=scale, f=f, m=m, seed=seed, **kwargs)

    return make


def _fsrcnn_factory(scale: int = 2, seed: int = 0, mode: str = "collapsed",
                    **kwargs) -> FSRCNN:
    # FSRCNN has no linear blocks, so SESR's training ``mode`` (expanded
    # or collapsed) names the same network; it is accepted and ignored.
    return FSRCNN(scale=scale, seed=seed, **kwargs)


def _sesr_specs(f: int, m: int) -> Callable[[int], List[LayerSpec]]:
    return lambda scale: sesr_specs(f, m, scale)


ZOO: Dict[str, ZooEntry] = {}


def _register(entry: ZooEntry) -> None:
    ZOO[entry.name] = entry


# ---------------------------------------------------------------------- #
# Small regime (≤ 25K parameters)
# ---------------------------------------------------------------------- #
_register(ZooEntry(
    name="Bicubic",
    regime="small",
    reported_params_k={2: None, 4: None},
    reported_macs_g={2: None, 4: None},
    reported_quality={
        2: {
            "set5": _q(33.68, 0.9307), "set14": _q(30.24, 0.8693),
            "bsd100": _q(29.56, 0.8439), "urban100": _q(26.88, 0.8408),
            "manga109": _q(30.82, 0.9349), "div2k": _q(32.45, 0.9043),
        },
        4: {
            "set5": _q(28.43, 0.8113), "set14": _q(26.00, 0.7025),
            "bsd100": _q(25.96, 0.6682), "urban100": _q(23.14, 0.6577),
            "manga109": _q(24.90, 0.7855), "div2k": _q(28.10, 0.7745),
        },
    },
))

_register(ZooEntry(
    name="FSRCNN",
    regime="small",
    reported_params_k={2: 12.46, 4: 12.46},
    reported_macs_g={2: 6.00, 4: 4.63},
    reported_quality={
        2: {
            "set5": _q(36.98, 0.9556), "set14": _q(32.62, 0.9087),
            "bsd100": _q(31.50, 0.8904), "urban100": _q(29.85, 0.9009),
            "manga109": _q(36.62, 0.9710), "div2k": _q(34.74, 0.9340),
        },
        4: {
            "set5": _q(30.70, 0.8657), "set14": _q(27.59, 0.7535),
            "bsd100": _q(26.96, 0.7128), "urban100": _q(24.60, 0.7258),
            "manga109": _q(27.89, 0.8590), "div2k": _q(29.36, 0.8110),
        },
    },
    spec_fn=lambda scale: fsrcnn_specs(scale),
    factory=_fsrcnn_factory,
))

_register(ZooEntry(
    name="FSRCNN (our setup)",
    regime="small",
    reported_params_k={2: 12.46, 4: 12.46},
    reported_macs_g={2: 6.00, 4: 4.63},
    reported_quality={
        2: {
            "set5": _q(36.85, 0.9561), "set14": _q(32.47, 0.9076),
            "bsd100": _q(31.37, 0.8891), "urban100": _q(29.43, 0.8963),
            "manga109": _q(35.81, 0.9689), "div2k": _q(34.73, 0.9349),
        },
        4: {
            "set5": _q(30.45, 0.8648), "set14": _q(27.44, 0.7528),
            "bsd100": _q(26.89, 0.7124), "urban100": _q(24.39, 0.7212),
            "manga109": _q(27.40, 0.8539), "div2k": _q(29.37, 0.8117),
        },
    },
    spec_fn=lambda scale: fsrcnn_specs(scale),
    factory=_fsrcnn_factory,
))

_register(ZooEntry(
    name="MOREMNAS-C",
    regime="small",
    reported_params_k={2: 25.0},
    reported_macs_g={2: 5.5},
    reported_quality={
        2: {
            "set5": _q(37.06, 0.9561), "set14": _q(32.75, 0.9094),
            "bsd100": _q(31.50, 0.8904), "urban100": _q(29.92, 0.9023),
            "manga109": _q(None, None), "div2k": _q(None, None),
        },
    },
))

for _name, _f, _m, _params, _macs, _q2, _q4 in [
    (
        "SESR-M3", 16, 3, {2: 8.91, 4: 13.71}, {2: 2.05, 4: 0.79},
        {
            "set5": _q(37.21, 0.9577), "set14": _q(32.70, 0.9100),
            "bsd100": _q(31.56, 0.8920), "urban100": _q(29.92, 0.9034),
            "manga109": _q(36.47, 0.9717), "div2k": _q(35.03, 0.9373),
        },
        {
            "set5": _q(30.75, 0.8714), "set14": _q(27.62, 0.7579),
            "bsd100": _q(27.00, 0.7166), "urban100": _q(24.61, 0.7304),
            "manga109": _q(27.90, 0.8644), "div2k": _q(29.52, 0.8155),
        },
    ),
    (
        "SESR-M5", 16, 5, {2: 13.52, 4: 18.32}, {2: 3.11, 4: 1.05},
        {
            "set5": _q(37.39, 0.9585), "set14": _q(32.84, 0.9115),
            "bsd100": _q(31.70, 0.8938), "urban100": _q(30.33, 0.9087),
            "manga109": _q(37.07, 0.9734), "div2k": _q(35.24, 0.9389),
        },
        {
            "set5": _q(30.99, 0.8764), "set14": _q(27.81, 0.7624),
            "bsd100": _q(27.11, 0.7199), "urban100": _q(24.80, 0.7389),
            "manga109": _q(28.29, 0.8734), "div2k": _q(29.65, 0.8189),
        },
    ),
    (
        "SESR-M7", 16, 7, {2: 18.12, 4: 22.92}, {2: 4.17, 4: 1.32},
        {
            "set5": _q(37.47, 0.9588), "set14": _q(32.91, 0.9118),
            "bsd100": _q(31.77, 0.8946), "urban100": _q(30.49, 0.9105),
            "manga109": _q(37.14, 0.9738), "div2k": _q(35.32, 0.9395),
        },
        {
            "set5": _q(31.14, 0.8787), "set14": _q(27.88, 0.7641),
            "bsd100": _q(27.13, 0.7209), "urban100": _q(24.90, 0.7436),
            "manga109": _q(28.53, 0.8778), "div2k": _q(29.72, 0.8204),
        },
    ),
]:
    _register(ZooEntry(
        name=_name, regime="small",
        reported_params_k=_params, reported_macs_g=_macs,
        reported_quality={2: _q2, 4: _q4},
        spec_fn=_sesr_specs(_f, _m), factory=_sesr_factory(_f, _m),
    ))

# ---------------------------------------------------------------------- #
# Medium regime (25K – 100K)
# ---------------------------------------------------------------------- #
_register(ZooEntry(
    name="TPSR-NoGAN",
    regime="medium",
    reported_params_k={2: 60.0, 4: 61.0},
    reported_macs_g={2: 14.0, 4: 3.6},
    reported_quality={
        2: {
            "set5": _q(37.38, 0.9583), "set14": _q(33.00, 0.9123),
            "bsd100": _q(31.75, 0.8942), "urban100": _q(30.61, 0.9119),
            "manga109": _q(None, None), "div2k": _q(None, None),
        },
        4: {
            "set5": _q(31.10, 0.8779), "set14": _q(27.95, 0.7663),
            "bsd100": _q(27.15, 0.7214), "urban100": _q(24.97, 0.7456),
            "manga109": _q(None, None), "div2k": _q(None, None),
        },
    },
))

_register(ZooEntry(
    name="SESR-M11",
    regime="medium",
    reported_params_k={2: 27.34, 4: 32.14},
    reported_macs_g={2: 6.30, 4: 1.85},
    reported_quality={
        2: {
            "set5": _q(37.58, 0.9593), "set14": _q(33.03, 0.9128),
            "bsd100": _q(31.85, 0.8956), "urban100": _q(30.72, 0.9136),
            "manga109": _q(37.40, 0.9746), "div2k": _q(35.45, 0.9404),
        },
        4: {
            "set5": _q(31.27, 0.8810), "set14": _q(27.94, 0.7660),
            "bsd100": _q(27.20, 0.7225), "urban100": _q(25.00, 0.7466),
            "manga109": _q(28.73, 0.8815), "div2k": _q(29.81, 0.8221),
        },
    },
    spec_fn=_sesr_specs(16, 11), factory=_sesr_factory(16, 11),
))

# ---------------------------------------------------------------------- #
# Large regime (> 100K)
# ---------------------------------------------------------------------- #
_register(ZooEntry(
    name="VDSR",
    regime="large",
    reported_params_k={2: 665.0, 4: 665.0},
    reported_macs_g={2: 612.6, 4: 612.6},
    reported_quality={
        2: {
            "set5": _q(37.53, 0.9587), "set14": _q(33.05, 0.9127),
            "bsd100": _q(31.90, 0.8960), "urban100": _q(30.77, 0.9141),
            "manga109": _q(37.16, 0.9740), "div2k": _q(35.43, 0.9410),
        },
        4: {
            "set5": _q(31.35, 0.8838), "set14": _q(28.02, 0.7678),
            "bsd100": _q(27.29, 0.7252), "urban100": _q(25.18, 0.7525),
            "manga109": _q(28.82, 0.8860), "div2k": _q(29.82, 0.8240),
        },
    },
    spec_fn=vdsr_specs,
))

_register(ZooEntry(
    name="LapSRN",
    regime="large",
    reported_params_k={2: 813.0, 4: 813.0},
    reported_macs_g={2: 29.9, 4: 149.4},
    reported_quality={
        2: {
            "set5": _q(37.52, 0.9590), "set14": _q(33.08, 0.9130),
            "bsd100": _q(31.80, 0.8950), "urban100": _q(30.41, 0.9100),
            "manga109": _q(37.53, 0.9740), "div2k": _q(35.31, 0.9400),
        },
        4: {
            "set5": _q(31.54, 0.8850), "set14": _q(28.19, 0.7720),
            "bsd100": _q(27.32, 0.7280), "urban100": _q(25.21, 0.7560),
            "manga109": _q(29.09, 0.8900), "div2k": _q(29.88, 0.8250),
        },
    },
))

_register(ZooEntry(
    name="BTSRN",
    regime="large",
    reported_params_k={2: 410.0, 4: 410.0},
    reported_macs_g={2: 207.7, 4: 165.2},
    reported_quality={
        2: {
            "set5": _q(37.75, None), "set14": _q(33.20, None),
            "bsd100": _q(32.05, None), "urban100": _q(31.63, None),
            "manga109": _q(None, None), "div2k": _q(None, None),
        },
        4: {
            "set5": _q(31.85, None), "set14": _q(28.20, None),
            "bsd100": _q(27.47, None), "urban100": _q(25.74, None),
            "manga109": _q(None, None), "div2k": _q(None, None),
        },
    },
))

_register(ZooEntry(
    name="CARN-M",
    regime="large",
    reported_params_k={2: 412.0, 4: 412.0},
    reported_macs_g={2: 91.2, 4: 32.5},
    reported_quality={
        2: {
            "set5": _q(37.53, 0.9583), "set14": _q(33.26, 0.9141),
            "bsd100": _q(31.92, 0.8960), "urban100": _q(31.23, 0.9193),
            "manga109": _q(None, None), "div2k": _q(None, None),
        },
        4: {
            "set5": _q(31.92, 0.8903), "set14": _q(28.42, 0.7762),
            "bsd100": _q(27.44, 0.7304), "urban100": _q(25.62, 0.7694),
            "manga109": _q(None, None), "div2k": _q(None, None),
        },
    },
))

_register(ZooEntry(
    name="MOREMNAS-B",
    regime="large",
    reported_params_k={2: 1118.0},
    reported_macs_g={2: 256.9},
    reported_quality={
        2: {
            "set5": _q(37.58, 0.9584), "set14": _q(33.22, 0.9135),
            "bsd100": _q(31.91, 0.8959), "urban100": _q(31.14, 0.9175),
            "manga109": _q(None, None), "div2k": _q(None, None),
        },
    },
))

_register(ZooEntry(
    name="SESR-XL",
    regime="large",
    reported_params_k={2: 105.37, 4: 114.97},
    reported_macs_g={2: 24.27, 4: 6.62},
    reported_quality={
        2: {
            "set5": _q(37.77, 0.9601), "set14": _q(33.24, 0.9145),
            "bsd100": _q(31.99, 0.8976), "urban100": _q(31.16, 0.9184),
            "manga109": _q(38.01, 0.9759), "div2k": _q(35.67, 0.9420),
        },
        4: {
            "set5": _q(31.54, 0.8866), "set14": _q(28.12, 0.7712),
            "bsd100": _q(27.31, 0.7277), "urban100": _q(25.31, 0.7604),
            "manga109": _q(29.04, 0.8901), "div2k": _q(29.94, 0.8266),
        },
    },
    spec_fn=_sesr_specs(32, 11), factory=_sesr_factory(32, 11),
))


# ---------------------------------------------------------------------- #
# queries
# ---------------------------------------------------------------------- #
def entries_for_scale(scale: int, regime: Optional[str] = None) -> List[ZooEntry]:
    """All zoo entries with reported quality at ``scale`` (optionally filtered)."""
    out = [
        e
        for e in ZOO.values()
        if scale in e.reported_quality and (regime is None or e.regime == regime)
    ]
    return out


def get(name: str) -> ZooEntry:
    if name not in ZOO:
        raise KeyError(f"unknown zoo entry {name!r}; know {sorted(ZOO)}")
    return ZOO[name]


def modelled_entries() -> List[ZooEntry]:
    """Entries whose parameter/MAC columns we recompute from specs."""
    return [e for e in ZOO.values() if e.spec_fn is not None]


def factory_names() -> List[str]:
    """Names of entries that can be instantiated (and therefore served)."""
    return sorted(e.name for e in ZOO.values() if e.factory is not None)
