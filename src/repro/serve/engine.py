"""Batched, multi-worker tile inference engine (the serving hot path).

A request is one LR Y-channel image.  The engine splits it into tiles
padded by the model's receptive radius with the grid
:func:`repro.deploy.tiled.tiled_upscale` uses (one planner,
:func:`~repro.deploy.tiled.plan_tiles`, and one core crop,
:meth:`~repro.deploy.tiled.TileSpec.stitch`, with the
:func:`~repro.deploy.tiled.receptive_radius` halo), fans the tiles out
across a thread worker pool, and stitches the upscaled cores back into
the response — so a single 1080p frame saturates every worker instead of
serialising behind one thread.  The parallelism is one tile per worker,
not inside a tile: while workers are live, the process's BLAS pool is
sized to ``max(1, cores // live workers)`` (:mod:`repro.serve.cpu`), so
the workers' GEMMs together run at most ``max(cores, workers)`` threads.
The pool size does not change output bits.

Configuration is one frozen :class:`~repro.serve.EngineConfig` value, and
``InferenceEngine(registry, key, config=EngineConfig(...))`` is the only
constructor signature.

Every tile runs the registry's compiled plan
(:class:`~repro.compile.CompiledModel`, bit-identical to the eager
collapsed network):

* **alone** (the default): each tile job runs through
  :func:`repro.train.predict_image`, the same call the CLI uses — output
  is bit-identical to ``tiled_upscale`` at the same tile, and to
  full-frame inference whenever one tile covers the frame.
* **coalesced across requests** (``batch_window_ms > 0``): the
  :class:`~repro.serve.BatchScheduler` coalesces same-shape tile jobs from
  *different* in-flight requests, bounded by ``max_batch`` and the window,
  with round-robin fair share so a huge request cannot starve small ones.
  Coalesced batches share one pad + im2col pass and run the conv matmul
  per sample (``CompiledModel.run(exact_batch=True)``), so the output
  stays **byte-identical** to unbatched serving.

Requests are admitted through a bounded slot pool (load-shedding beats
unbounded queueing), carry a deadline (:class:`RequestTimeout`), and
:meth:`InferenceEngine.shutdown` drains workers gracefully.

Fault handling (see ``docs/robustness.md`` and ``tests/resilience/``):

* A tile that raises fails only its own request.  A **poisoned batch**
  never takes its batchmates down: if a coalesced batch fails, its jobs
  re-run singly, so only the actually-faulty request fails.
* A per-model-key :class:`~repro.resilience.CircuitBreaker` trips after
  consecutive request failures; while open, requests skip the model
  entirely.
* With ``degraded_mode=True`` a failed request — or one that arrives
  while the breaker is open — returns the bicubic-upscaled input tagged
  ``degraded=True`` (:class:`UpscaleResult`) instead of raising;
  identical bytes to :func:`repro.datasets.degradation.bicubic_upscale`.
* A seedable :class:`~repro.resilience.FaultInjector` hook fires before
  every tile job (and once per coalesced-batch attempt), which is how the
  chaos suite drives all of the above deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..datasets.degradation import bicubic_upscale
from ..deploy.tiled import TileSpec, plan_tiles, receptive_radius
from ..nn import Module
from ..obs import trace as _trace
from ..resilience import CircuitBreaker, FaultInjector
from ..train import predict_image
from . import cpu as _cpu
from .cache import LRUCache, array_digest
from .config import EngineConfig
from .registry import ModelKey, ModelRegistry
from .scheduler import BatchScheduler, TileJob
from .telemetry import Telemetry


class EngineError(RuntimeError):
    """Base class for serving failures."""


class EngineClosed(EngineError):
    """The engine is shut down and no longer accepts requests."""


class EngineOverloaded(EngineError):
    """All request slots are busy; the caller should shed or retry."""


class RequestTimeout(EngineError):
    """The request missed its deadline; remaining tiles were cancelled."""


class BreakerOpen(EngineError):
    """The circuit breaker is open and degraded mode is disabled."""


@dataclass
class UpscaleResult:
    """An upscaled image plus how it was produced.

    ``degraded=True`` means the model path failed (a tile raised or the
    breaker is open) and ``image`` is the bicubic fallback — bit-identical
    to ``bicubic_upscale(lr, scale)``; ``reason`` says why.
    ``trace_id`` identifies the request's span tree in the tracer's ring
    buffer / JSONL export (surfaced as the ``X-Trace-Id`` HTTP header).
    """

    image: np.ndarray
    degraded: bool = False
    cached: bool = False
    reason: str = ""
    trace_id: str = ""


def predict_batch_exact(model: Module, patches: np.ndarray) -> np.ndarray:
    """Upscale a ``(N, H, W, 1)`` stack, bit-identical per sample to
    :func:`~repro.train.predict_image` on each tile alone.

    Returns ``(N, sH, sW)`` clipped to [0, 1].  Compiled models share one
    pad/im2col pass across the batch and run the conv GEMM per sample
    (``run(exact_batch=True)``); anything else (eager models, duck-typed
    test doubles) is computed tile by tile — no conv coalescing, but the
    parity contract always holds.
    """
    from ..compile.executor import CompiledModel

    if isinstance(model, CompiledModel):
        return np.clip(
            model.run(patches, exact_batch=True)[..., 0], 0.0, 1.0
        )
    return np.stack([predict_image(model, p[..., 0]) for p in patches])


class _Request:
    """In-flight request state shared between the caller and the workers."""

    def __init__(self, lr: np.ndarray, scale: int) -> None:
        self.lr = lr
        self.out = np.zeros(
            (lr.shape[0] * scale, lr.shape[1] * scale), dtype=np.float32
        )
        self.ctx: Optional[_trace.SpanContext] = None
        self.pending = 0
        self.error: Optional[BaseException] = None
        self.cancelled = False
        self.done = threading.Event()
        self._lock = threading.Lock()

    def finish_jobs(self, n: int) -> None:
        with self._lock:
            self.pending -= n
            if self.pending <= 0:
                self.done.set()

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            if self.error is None:
                self.error = exc
            self.cancelled = True


class InferenceEngine:
    """Scheduler → worker pool → stitched response, with cache + telemetry.

    Parameters
    ----------
    registry, key:
        Where the deployable network comes from; the model is resolved
        eagerly so a bad name/checkpoint fails at construction, not on the
        first request.
    config:
        An :class:`~repro.serve.EngineConfig` holding every serving knob
        (workers, tiling, batching, cache, admission, breaker, degraded
        mode).  ``None`` = defaults.
    telemetry, breaker, fault_injector:
        Stateful collaborators, injectable for sharing and testing: a
        metrics registry, a pre-built circuit breaker (default: one built
        from ``config.breaker_threshold``/``config.breaker_cooldown``),
        and the chaos-testing fault hook.

    Any other keyword argument raises :class:`TypeError`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        key: ModelKey,
        config: Optional[EngineConfig] = None,
        *,
        telemetry: Optional[Telemetry] = None,
        breaker: Optional[CircuitBreaker] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config = config or EngineConfig()

        self.registry = registry
        self.key = key
        # The compiled plan, bit-identical to the eager collapsed network
        # (see repro.compile); every deployable key compiles.
        self.model = registry.get_compiled(key)
        self.scale = key.scale
        self.tile = config.tile
        # The receptive radius: the one halo that makes tiling exact.
        self.halo = receptive_radius(self.model)
        self.max_batch = config.max_batch
        self.batch_window = config.batch_window_ms / 1e3
        self.default_timeout = config.default_timeout
        self.cache = LRUCache(config.cache_size)
        self.telemetry = telemetry or Telemetry()
        self.degraded_mode = config.degraded_mode
        self.fault_injector = fault_injector
        breaker_name = f"{key.name}:x{key.scale}:{key.precision}"
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
            name=breaker_name,
        )
        if self.breaker._on_transition is None:
            self.breaker._on_transition = self._on_breaker_transition
        self._breaker_state = self.telemetry.state(
            "engine.breaker_state", self.breaker.state
        )

        self._scheduler = BatchScheduler(
            max_batch=config.max_batch, window=self.batch_window
        )
        self._slots = threading.Semaphore(config.max_pending)
        self._closed = False
        self._state_lock = threading.Lock()
        self._queue_depth = self.telemetry.gauge("engine.queue_depth")
        self._inflight = self.telemetry.gauge("engine.inflight_requests")
        self._latency = self.telemetry.histogram("engine.request_latency_ms")
        self._batch_size = self.telemetry.histogram("engine.batch_size")
        # Registered once construction can no longer fail, so a raising
        # constructor leaves no workers counted against the BLAS pool.
        self._blas_pool = _cpu.POOL
        self._blas_pool.register(config.workers)
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"sr-worker-{i}", daemon=True)
            for i in range(1, config.workers + 1)
        ]
        for t in self._workers:
            t.start()

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def upscale(
        self, lr_img: np.ndarray, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Super-resolve one (H, W) Y image; blocks until done or deadline."""
        return self.upscale_ex(lr_img, timeout=timeout).image

    def upscale_ex(
        self,
        lr_img: np.ndarray,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> UpscaleResult:
        """Like :meth:`upscale` but reports degradation/caching metadata.

        ``trace_id`` (16 hex chars) forces the trace identity of the
        request's span tree — callers that received an ``X-Trace-Id``
        upstream pass it here so the whole path shares one trace.  The id
        actually used (given or generated) comes back on
        :attr:`UpscaleResult.trace_id`.
        """
        if self._closed:
            raise EngineClosed("engine is shut down")
        lr_img = np.asarray(lr_img, dtype=np.float32)
        if lr_img.ndim != 2:
            raise ValueError(f"expected a 2-D Y image, got shape {lr_img.shape}")
        timeout = self.default_timeout if timeout is None else timeout
        with _trace.get_tracer().span(
            "serve.request",
            trace_id=trace_id,
            model=self.key.name,
            scale=self.scale,
            h=int(lr_img.shape[0]),
            w=int(lr_img.shape[1]),
        ) as root:
            result = self._handle_request(lr_img, timeout, root)
            result.trace_id = root.trace_id
            root.attrs["cached"] = result.cached
            root.attrs["degraded"] = result.degraded
            return result

    def _handle_request(
        self, lr_img: np.ndarray, timeout: float, root: _trace.Span
    ) -> UpscaleResult:
        self.telemetry.counter("engine.requests_total").inc()

        cache_key = (self.key, array_digest(lr_img))
        cached = self.cache.get(cache_key)
        if cached is not None:
            self.telemetry.counter("engine.cache_hits").inc()
            return UpscaleResult(cached, cached=True)
        self.telemetry.counter("engine.cache_misses").inc()

        if not self._slots.acquire(blocking=False):
            self.telemetry.counter("engine.requests_overloaded").inc()
            raise EngineOverloaded("all request slots busy")
        start = time.perf_counter()
        self._inflight.inc()
        try:
            # Breaker check happens with the slot held so a half-open
            # trial admitted here always reaches record_success/failure.
            if not self.breaker.allow():
                self.telemetry.counter("engine.breaker_short_circuits").inc()
                return self._degrade(lr_img, "circuit breaker open")
            request = self._submit(lr_img, root)
            if not request.done.wait(timeout):
                request.cancelled = True
                self.telemetry.counter("engine.requests_timeout").inc()
                self.breaker.record_failure()
                raise RequestTimeout(
                    f"request missed its {timeout:.3f}s deadline"
                )
            if request.error is not None:
                self.telemetry.counter("engine.requests_error").inc()
                self.breaker.record_failure()
                if self.degraded_mode:
                    return self._degrade(
                        lr_img, f"tile failed: {request.error!r}"
                    )
                raise EngineError(
                    f"worker failed: {request.error!r}"
                ) from request.error
        finally:
            self._inflight.dec()
            self._slots.release()
        self.breaker.record_success()
        self._latency.observe((time.perf_counter() - start) * 1e3)
        self.telemetry.counter("engine.requests_ok").inc()
        self.cache.put(cache_key, request.out)
        return UpscaleResult(request.out)

    def _degrade(self, lr_img: np.ndarray, reason: str) -> UpscaleResult:
        """Bicubic fallback (or typed failure when degraded mode is off)."""
        if not self.degraded_mode:
            raise BreakerOpen(
                f"model path unavailable ({reason}) and degraded mode is off"
            )
        self.telemetry.counter("engine.requests_degraded").inc()
        out = np.clip(
            bicubic_upscale(lr_img, self.scale), 0.0, 1.0
        ).astype(np.float32)
        # Degraded outputs are never cached: the model path should get a
        # fresh chance (and real pixels) once it recovers.
        return UpscaleResult(out, degraded=True, reason=reason)

    def _submit(self, lr_img: np.ndarray, root: _trace.Span) -> _Request:
        h, w = lr_img.shape
        specs = plan_tiles(h, w, self.tile, self.halo)
        request = _Request(lr_img, self.scale)
        # Workers adopt the request span as parent: tile/stitch spans land
        # in this trace no matter which pool thread runs them.
        request.ctx = root.context
        root.attrs["tiles"] = len(specs)
        request.pending = len(specs)
        for spec in specs:
            self._scheduler.put(
                TileJob(request, spec, group=(self.key, spec.halo_shape))
            )
            self._queue_depth.inc()
        return request

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            batch = self._scheduler.get()
            if batch is None:
                return  # scheduler closed and drained
            self._queue_depth.dec(len(batch))
            self._dispatch(batch)

    def _dispatch(self, batch: List[TileJob]) -> None:
        """Run one dispatched batch; every job is finished exactly once,
        either computed + stitched or failed (request tagged)."""
        self._batch_size.observe(len(batch))
        self.telemetry.counter("engine.batches").inc()
        if len(batch) > 1:
            self.telemetry.counter("engine.coalesced_batches").inc()
            self.telemetry.counter("engine.coalesced_tiles").inc(len(batch))
            if self._run_batch(batch):
                for job in batch:
                    job.request.finish_jobs(1)
                return
            # Poisoned batch: isolate the fault — every job re-runs singly
            # below, so only the genuinely faulty request(s) fail.
            self.telemetry.counter("engine.batch_fallbacks").inc()
        for job in batch:
            try:
                if not job.request.cancelled:
                    self._run_job(job.request, job.spec)
            except BaseException as exc:  # noqa: BLE001 — reported to caller
                job.request.fail(exc)
            job.request.finish_jobs(1)

    def _run_batch(self, batch: List[TileJob]) -> bool:
        """One attempt at a coalesced cross-request batch.

        Returns ``True`` when every live job was computed and stitched;
        ``False`` signals the caller to fall back to singles.
        """
        live = [j for j in batch if not j.request.cancelled]
        if not live:
            return True  # nothing to compute; jobs just need finishing
        try:
            if self.fault_injector is not None:
                self.fault_injector.on_tile()
            self._compute_coalesced(live)
            return True
        except Exception:
            return False

    def _compute_coalesced(self, jobs: List[TileJob]) -> None:
        """Stack same-shape tiles of several requests into one exact pass."""
        specs = [j.spec for j in jobs]
        shape = specs[0].halo_shape
        requests = len({id(j.request) for j in jobs})
        with _trace.span(
            "serve.batch", tiles=len(jobs), requests=requests,
            h=shape[0], w=shape[1],
        ) as bspan:
            patches = np.stack([
                j.request.lr[t.hy0:t.hy1, t.hx0:t.hx1]
                for j, t in zip(jobs, specs)
            ])[..., None]
            outs = predict_batch_exact(self.model, patches)
            for j, t, sr in zip(jobs, specs, outs):
                t.stitch(j.request.out, sr, self.scale)
        self.telemetry.counter("engine.tiles").inc(len(jobs))
        # Keep each request's trace tree complete: a zero-cost tile span
        # per job, linked to the batch it actually ran in.
        for j, t in zip(jobs, specs):
            with _trace.attach(j.request.ctx):
                with _trace.span(
                    "serve.tile", y0=t.y0, x0=t.x0,
                    h=t.y1 - t.y0, w=t.x1 - t.x0,
                    batched=True, batch_trace=bspan.trace_id,
                ):
                    pass

    def _run_job(self, request: _Request, t: TileSpec) -> None:
        """One tile job: fault hook, compute, stitch."""
        with _trace.attach(request.ctx):
            if self.fault_injector is not None:
                self.fault_injector.on_tile()
            with _trace.span(
                "serve.tile", y0=t.y0, x0=t.x0,
                h=t.y1 - t.y0, w=t.x1 - t.x0,
            ):
                sr = predict_image(
                    self.model, request.lr[t.hy0:t.hy1, t.hx0:t.hx1]
                )
            self.telemetry.counter("engine.tiles").inc()
            with _trace.span("serve.stitch", tiles=1):
                t.stitch(request.out, sr, self.scale)

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.telemetry.counter(f"engine.breaker_to_{new}").inc()
        self._breaker_state.set(new)

    # ------------------------------------------------------------------ #
    # lifecycle / introspection
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting requests and stop workers.

        ``wait=True`` lets queued jobs finish first (the scheduler drains
        before handing workers their exit signal); ``wait=False`` cancels
        whatever has not started yet.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        if not wait:
            for job in self._scheduler.drain():
                self._queue_depth.dec()
                job.request.fail(EngineClosed("engine shut down"))
                job.request.finish_jobs(1)
        self._scheduler.close()
        for t in self._workers:
            t.join(timeout=30.0)
        self._blas_pool.unregister(self.config.workers)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _batching_stats(self) -> Dict[str, object]:
        counters = self.telemetry
        batches = counters.counter("engine.batches").value
        tiles = counters.counter("engine.tiles").value
        coalesced = counters.counter("engine.coalesced_tiles").value
        return {
            "window_ms": self.config.batch_window_ms,
            "max_batch": self.max_batch,
            "batches": batches,
            "coalesced_batches":
                counters.counter("engine.coalesced_batches").value,
            "coalesced_tiles": coalesced,
            "batch_fallbacks":
                counters.counter("engine.batch_fallbacks").value,
            "mean_batch_size": self._batch_size.mean,
            "coalesce_ratio": (coalesced / tiles) if tiles else 0.0,
        }

    def stats(self) -> Dict[str, object]:
        """Everything ``/stats`` reports: telemetry + cache + registry."""
        snap = self.telemetry.snapshot()
        snap["cache"] = self.cache.stats()
        snap["registry"] = self.registry.stats()
        snap["breaker"] = self.breaker.snapshot()
        snap["batching"] = self._batching_stats()
        if self.fault_injector is not None:
            snap["fault_injector"] = self.fault_injector.stats()
        config = self.config.to_dict()
        config.update({
            "model": self.key.name,
            "scale": self.key.scale,
            "precision": self.key.precision,
            "workers": len(self._workers),
            "halo": self.halo,
            "cores": self._blas_pool.cores,
            "blas_threads": self._blas_pool.threads(),
        })
        snap["config"] = config
        return snap
