"""``repro.serve`` — batched, cached, multi-worker SR inference serving.

The deployment pipeline the paper's efficiency story points at: collapsed
SESR networks loaded once (:mod:`~repro.serve.registry`, through the same
:func:`repro.deploy.load`/:func:`repro.deploy.to_deployable` calls as the
CLI and ``repro.api``), requests tiled on
:func:`repro.deploy.plan_tiles`'s grid and fanned across a worker pool
(:mod:`~repro.serve.engine`) whose
configuration is one frozen :class:`EngineConfig` value, the process's
BLAS pool sized so workers x BLAS threads fit the cores
(:mod:`~repro.serve.cpu`), same-shape tile
jobs from concurrent requests coalesced bit-exactly by a dynamic
:class:`BatchScheduler` (:mod:`~repro.serve.scheduler`), repeated inputs
answered from an LRU output cache (:mod:`~repro.serve.cache`), everything
measured (:mod:`~repro.serve.telemetry`) and exposed over a stdlib HTTP
server with a versioned ``/v1`` API (:mod:`~repro.serve.http`).
Front-end: ``python -m repro.cli serve``.
"""

from .cache import LRUCache, array_digest
from .config import EngineConfig
from .engine import (
    BreakerOpen,
    EngineClosed,
    EngineError,
    EngineOverloaded,
    InferenceEngine,
    RequestTimeout,
    UpscaleResult,
)
from .scheduler import BatchScheduler, TileJob
from .http import (
    SRRequestHandler,
    SRServer,
    make_server,
    upscale_array_ex,
)
from .registry import ModelKey, ModelRegistry
from .telemetry import Counter, Gauge, Histogram, StateGauge, Telemetry

__all__ = [
    "LRUCache",
    "array_digest",
    "EngineConfig",
    "BatchScheduler",
    "TileJob",
    "BreakerOpen",
    "EngineClosed",
    "EngineError",
    "EngineOverloaded",
    "InferenceEngine",
    "RequestTimeout",
    "UpscaleResult",
    "SRRequestHandler",
    "SRServer",
    "make_server",
    "upscale_array_ex",
    "ModelKey",
    "ModelRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "StateGauge",
    "Telemetry",
]
