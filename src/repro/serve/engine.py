"""Batched, multi-worker tile inference engine (the serving hot path).

A request is one LR Y-channel image.  The engine splits it into halo-padded
tiles exactly like :func:`repro.deploy.tiled.tiled_upscale` (same tile
planner, same :func:`~repro.deploy.tiled.receptive_radius` halo default),
fans the tiles out across a thread worker pool, and stitches the upscaled
cores back into the response — so a single 1080p frame saturates every
worker instead of serialising behind one thread.  The parallelism is one
tile per worker, not inside a tile: while workers are live, the
process's BLAS pool is sized to ``max(1, cores // live workers)``
(:mod:`repro.serve.cpu`), so the workers' GEMMs together run at most
``max(cores, workers)`` threads.  The pool size does not change output
bits.

Configuration is one frozen :class:`~repro.serve.EngineConfig` value —
``InferenceEngine(registry, key, config=EngineConfig(...))`` is the
*only* constructor signature (the historical kwarg-soup shim warned for
two releases and is gone; stray keywords now raise :class:`TypeError`).
``config.gemm_backend`` is applied to the compiled model at construction
(:meth:`repro.compile.CompiledModel.set_gemm_backend`), and the resolved
per-conv kernel selection is echoed under ``stats()["kernels"]``.

Execution modes per tile job:

* **exact** (default): each tile runs through
  :func:`repro.train.predict_image`, the same call the CLI uses — output is
  bit-identical to ``tiled_upscale`` at the same tile/halo, and to
  full-frame inference whenever one tile covers the frame.
* **cross-request batched** (``batch_window_ms > 0``): the
  :class:`~repro.serve.BatchScheduler` coalesces same-shape tile jobs from
  *different* in-flight requests, bounded by ``max_batch`` and the window,
  with round-robin fair share so a huge request cannot starve small ones.
  Coalesced batches share one pad + im2col pass and run the conv matmul
  per sample (``CompiledModel.run(exact_batch=True)``), so the output
  stays **byte-identical** to unbatched serving — the collapsed nets are
  dispatch-bound, which is where coalescing pays (see ``docs/serving.md``).
* **micro-batched** (``microbatch=True``, legacy): same-shape tiles *of
  one request* are stacked through a single stacked matmul.  Fewer Python
  round-trips at the cost of bit-exactness (BLAS may reassociate across
  batch layouts; results agree to ~1 ulp).

Requests are admitted through a bounded slot pool (load-shedding beats
unbounded queueing), carry a deadline (:class:`RequestTimeout`), and
:meth:`InferenceEngine.shutdown` drains workers gracefully.

Fault tolerance (see ``docs/robustness.md`` and ``tests/resilience/``):

* Tile jobs retry transient failures under a
  :class:`~repro.resilience.RetryPolicy` (exponential backoff, seeded
  jitter) before the request is failed.
* A **poisoned batch** never takes its batchmates down: if a coalesced
  batch fails, its jobs re-run singly — each with the full retry budget —
  so only the actually-faulty request fails.
* A per-model-key :class:`~repro.resilience.CircuitBreaker` trips after
  consecutive request failures; while open, requests skip the model
  entirely.
* With ``degraded_mode=True`` a request that exhausts retries — or
  arrives while the breaker is open — returns the bicubic-upscaled input
  tagged ``degraded=True`` (:class:`UpscaleResult`) instead of raising;
  identical bytes to :func:`repro.datasets.degradation.bicubic_upscale`.
* A supervisor thread heartbeat-checks the worker pool: dead workers
  (e.g. an injected :class:`~repro.resilience.WorkerDeath`) re-queue
  their in-flight jobs and are respawned; workers busy past
  ``wedge_timeout`` are retired and replaced so one stuck BLAS call
  cannot eat a pool slot forever.
* A seedable :class:`~repro.resilience.FaultInjector` hook fires before
  every tile-job attempt (and once per coalesced-batch attempt), which is
  how the chaos suite drives all of the above deterministically.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.degradation import bicubic_upscale
from ..deploy.tiled import receptive_radius
from ..nn import Module, Tensor, no_grad
from ..obs import trace as _trace
from ..resilience import CircuitBreaker, FaultInjector, WorkerDeath
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


@dataclass(frozen=True)
class TileSpec:
    """One tile: output core ``[y0:y1, x0:x1]`` + halo window in LR coords."""

    y0: int
    y1: int
    x0: int
    x1: int
    hy0: int
    hy1: int
    hx0: int
    hx1: int

    @property
    def halo_shape(self) -> Tuple[int, int]:
        return (self.hy1 - self.hy0, self.hx1 - self.hx0)


@dataclass
class UpscaleResult:
    """An upscaled image plus how it was produced.

    ``degraded=True`` means the model path failed (retries exhausted or
    breaker open) and ``image`` is the bicubic fallback — bit-identical
    to ``bicubic_upscale(lr, scale)``; ``reason`` says why.
    ``trace_id`` identifies the request's span tree in the tracer's ring
    buffer / JSONL export (surfaced as the ``X-Trace-Id`` HTTP header).
    """

    image: np.ndarray
    degraded: bool = False
    cached: bool = False
    reason: str = ""
    trace_id: str = ""


def plan_tiles(
    h: int, w: int, tile: Tuple[int, int], halo: int
) -> List[TileSpec]:
    """Tile grid identical to :func:`repro.deploy.tiled.tiled_upscale`."""
    th, tw = tile
    if th <= 0 or tw <= 0:
        raise ValueError("tile dimensions must be positive")
    specs = []
    for y0 in range(0, h, th):
        for x0 in range(0, w, tw):
            y1, x1 = min(y0 + th, h), min(x0 + tw, w)
            specs.append(TileSpec(
                y0, y1, x0, x1,
                max(y0 - halo, 0), min(y1 + halo, h),
                max(x0 - halo, 0), min(x1 + halo, w),
            ))
    return specs


def predict_batch(model: Module, patches: np.ndarray) -> np.ndarray:
    """Run a ``(N, H, W, 1)`` stack through one forward pass per layer.

    The batch axis rides through the same im2col ``conv2d`` the single-image
    path uses — one matmul covers all N tiles, which is the micro-batching
    win.  Returns ``(N, sH, sW)`` clipped to [0, 1] like ``predict_image``.
    Approximate across the batch axis (~1 ulp); for the bit-exact batched
    path see :func:`predict_batch_exact`.
    """
    model.eval()
    with no_grad():
        out = model(Tensor(patches)).data
    return np.clip(out[..., 0], 0.0, 1.0)


def predict_batch_exact(model: Module, patches: np.ndarray) -> np.ndarray:
    """Like :func:`predict_batch`, but bit-identical per sample to
    :func:`~repro.train.predict_image` on each tile alone.

    Compiled models share one pad/im2col pass across the batch and run
    the conv GEMM per sample (``run(exact_batch=True)``); anything else
    (eager fallback, duck-typed test doubles) is computed tile by tile —
    no conv coalescing, but the parity contract always holds.
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
        (workers, tiling, batching, cache, admission, resilience,
        compilation).  ``None`` = defaults.
    telemetry, breaker, fault_injector:
        Stateful collaborators, injectable for sharing and testing: a
        metrics registry, a pre-built circuit breaker (default: one built
        from ``config.breaker_threshold``/``config.breaker_cooldown``),
        and the chaos-testing fault hook.

    The pre-``EngineConfig`` keyword surface (``workers=``, ``tile=``,
    ``retry=``, ...) was removed after a two-release deprecation window;
    passing those keywords now raises :class:`TypeError` like any other
    unknown argument.
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
        # Run the compiled plan by default (bit-identical to eager, see
        # repro.compile); models the compiler cannot capture fall back to
        # the eager network transparently.
        self.compiled = False
        self.compile_fallback = False
        if config.compiled:
            from ..compile import CaptureError

            try:
                self.model = registry.get_compiled(key)
                self.compiled = True
                # The registry shares one CompiledModel per key across
                # engines, so the backend applied last wins — concurrent
                # engines over one key should agree (see EngineConfig).
                self.model.set_gemm_backend(config.gemm_backend)
            except CaptureError:
                self.model = registry.get(key)
                self.compile_fallback = True
        else:
            self.model = registry.get(key)
        self.scale = key.scale
        self.tile = config.tile
        self.halo = (receptive_radius(self.model) if config.halo is None
                     else config.halo)
        self.microbatch = config.microbatch
        self.max_batch = config.max_batch
        self.batch_window = config.batch_window_ms / 1e3
        self.default_timeout = config.default_timeout
        self.cache = LRUCache(config.cache_size)
        self.telemetry = telemetry or Telemetry()
        self.retry = config.retry
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
        self._retry_rng = random.Random(self.retry.seed)
        self._rng_lock = threading.Lock()
        self._workers_lock = threading.Lock()
        self._worker_seq = 0
        self._busy_since: Dict[str, float] = {}
        self._retired: set = set()
        self.supervise_interval = config.supervise_interval
        self.wedge_timeout = config.wedge_timeout
        # Process data plane: dispatcher threads keep the whole control
        # plane (scheduling, retries, chaos hooks, spans, stitching) and
        # proxy only the stacked forward pass to spawned workers over
        # shared-memory arenas.  Imported lazily — repro.dataplane imports
        # back into this module.
        self._pool = None
        if config.worker_backend == "process":
            from ..dataplane.pool import ProcessWorkerPool

            self._pool = ProcessWorkerPool(
                self.model,
                workers=config.workers,
                tile=self.tile,
                halo=self.halo,
                scale=self.scale,
                max_batch=config.max_batch,
            )
        # Registered once construction can no longer fail, so a raising
        # constructor leaves no workers counted against the BLAS pool.
        # Process workers count too: they compute on the same cores.
        self._blas_pool = _cpu.POOL
        self._blas_pool.register(config.workers)
        self._workers = [self._spawn_worker() for _ in range(config.workers)]
        self._supervisor: Optional[threading.Thread] = None
        if config.supervise:
            self._supervisor = threading.Thread(
                target=self._supervisor_loop, name="sr-supervisor", daemon=True
            )
            self._supervisor.start()

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
                        lr_img, f"retries exhausted: {request.error!r}"
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
        jobs = self._group(specs)
        root.attrs["tiles"] = len(specs)
        root.attrs["jobs"] = len(jobs)
        request.pending = len(jobs)
        for spec_group in jobs:
            # Only singleton jobs coalesce across requests; legacy
            # micro-batch groups are already stacked and ride the express
            # lane.
            job = TileJob(
                request, spec_group,
                group=(self.key, spec_group[0].halo_shape),
                batchable=len(spec_group) == 1,
            )
            self._scheduler.put(job)
            self._queue_depth.inc()
        return request

    def _group(self, specs: Sequence[TileSpec]) -> List[List[TileSpec]]:
        """Group tiles into jobs: singletons, or same-shape micro-batches."""
        if not self.microbatch:
            return [[s] for s in specs]
        by_shape: Dict[Tuple[int, int], List[TileSpec]] = {}
        for s in specs:
            by_shape.setdefault(s.halo_shape, []).append(s)
        jobs = []
        for group in by_shape.values():
            for i in range(0, len(group), self.max_batch):
                jobs.append(group[i : i + self.max_batch])
        return jobs

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _spawn_worker(self) -> threading.Thread:
        # Callers serialise: the constructor runs alone, the supervisor
        # holds ``_workers_lock``.
        self._worker_seq += 1
        t = threading.Thread(
            target=self._worker_loop,
            name=f"sr-worker-{self._worker_seq}",
            daemon=True,
        )
        t.start()
        return t

    def _worker_loop(self) -> None:
        name = threading.current_thread().name
        while True:
            batch = self._scheduler.get()
            if batch is None:
                return  # scheduler closed and drained
            self._queue_depth.dec(len(batch))
            self._busy_since[name] = time.monotonic()
            remaining = list(batch)
            try:
                self._dispatch(batch, remaining)
            except WorkerDeath:
                # Simulated kill -9: hand unfinished jobs back to a live
                # worker and let this thread die; the supervisor respawns
                # it.  Finished batchmates are NOT requeued — their tiles
                # are stitched and accounted.
                self._busy_since.pop(name, None)
                self.telemetry.counter("engine.worker_deaths").inc()
                if self._closed:
                    for job in remaining:
                        job.request.fail(EngineClosed("engine shut down"))
                        job.request.finish_jobs(1)
                else:
                    self._scheduler.requeue(remaining)
                    self._queue_depth.inc(len(remaining))
                return
            finally:
                self._busy_since.pop(name, None)
            if name in self._retired:
                return

    def _dispatch(self, batch: List[TileJob],
                  remaining: List[TileJob]) -> None:
        """Run one dispatched batch; ``remaining`` tracks unfinished jobs.

        Every job leaves through exactly one of: computed + stitched,
        failed (request tagged), or still in ``remaining`` when a
        :class:`WorkerDeath` propagates (the caller requeues those).
        """
        self._batch_size.observe(len(batch))
        self.telemetry.counter("engine.batches").inc()
        if len(batch) > 1:
            self.telemetry.counter("engine.coalesced_batches").inc()
            self.telemetry.counter("engine.coalesced_tiles").inc(len(batch))
            try:
                if self._run_batch(batch):
                    for job in batch:
                        self._finish(job, remaining)
                    return
            except WorkerDeath:
                raise
            # Poisoned batch: isolate the fault — every job re-runs singly
            # below with its own full retry budget, so only the genuinely
            # faulty request(s) fail.
            self.telemetry.counter("engine.batch_fallbacks").inc()
        for job in batch:
            try:
                if not job.request.cancelled:
                    self._run_job(job.request, job.specs)
            except WorkerDeath:
                raise
            except BaseException as exc:  # noqa: BLE001 — reported to caller
                job.request.fail(exc)
            self._finish(job, remaining)

    @staticmethod
    def _finish(job: TileJob, remaining: List[TileJob]) -> None:
        job.request.finish_jobs(1)
        try:
            remaining.remove(job)
        except ValueError:  # pragma: no cover — defensive
            pass

    def _run_batch(self, batch: List[TileJob]) -> bool:
        """One attempt at a coalesced cross-request batch.

        Returns ``True`` when every live job was computed and stitched;
        ``False`` signals the caller to fall back to singles.  Raises
        only :class:`WorkerDeath`.
        """
        live = [j for j in batch if not j.request.cancelled]
        if not live:
            return True  # nothing to compute; jobs just need finishing
        try:
            if self.fault_injector is not None:
                self.fault_injector.on_tile()
            self._compute_coalesced(live)
            return True
        except WorkerDeath:
            raise
        except Exception:
            return False

    def _compute_coalesced(self, jobs: List[TileJob]) -> None:
        """Stack same-shape tiles of several requests into one exact pass."""
        s = self.scale
        specs = [j.specs[0] for j in jobs]
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
            outs = self._predict_stack(patches, exact=True)
            for j, t, sr in zip(jobs, specs, outs):
                cy0, cx0 = (t.y0 - t.hy0) * s, (t.x0 - t.hx0) * s
                cy1 = cy0 + (t.y1 - t.y0) * s
                cx1 = cx0 + (t.x1 - t.x0) * s
                j.request.out[t.y0 * s:t.y1 * s, t.x0 * s:t.x1 * s] = (
                    sr[cy0:cy1, cx0:cx1]
                )
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

    def _run_job(self, request: _Request, specs: List[TileSpec]) -> None:
        """One tile job, with per-attempt fault injection and retries."""
        with _trace.attach(request.ctx):
            attempts = self.retry.max_attempts
            for attempt in range(1, attempts + 1):
                try:
                    if self.fault_injector is not None:
                        self.fault_injector.on_tile()
                    self._compute(request, specs)
                    return
                except WorkerDeath:
                    raise
                except Exception:
                    if attempt >= attempts or request.cancelled or self._closed:
                        raise
                    self.telemetry.counter("engine.tile_retries").inc()
                    with self._rng_lock:
                        u = self._retry_rng.random()
                    time.sleep(self.retry.backoff(attempt, u))

    def _predict_stack(self, patches: np.ndarray, exact: bool) -> np.ndarray:
        """Run an ``(N, h, w, 1)`` tile stack on the configured backend.

        Thread backend: the in-process forward pass.  Process backend:
        ship the stack through the shared-memory pool — same predict
        functions worker-side, so the result is bit-identical either
        way.  A :class:`~repro.dataplane.ProcessWorkerDied` escapes as an
        ordinary exception, which the callers' retry/fallback machinery
        absorbs exactly like any transient tile fault.
        """
        if self._pool is not None:
            sp = _trace.current_span()
            return self._pool.submit(
                patches,
                mode="exact" if exact else "stack",
                ctx=None if sp is None else sp.context,
            )
        if exact:
            return predict_batch_exact(self.model, patches)
        return predict_batch(self.model, patches)

    def _compute(self, request: _Request, specs: List[TileSpec]) -> None:
        lr, s = request.lr, self.scale
        if len(specs) > 1:
            with _trace.span("serve.tile_batch", tiles=len(specs)):
                patches = np.stack(
                    [lr[t.hy0 : t.hy1, t.hx0 : t.hx1] for t in specs]
                )[..., None]
                outs = self._predict_stack(patches, exact=False)
            self.telemetry.counter("engine.microbatches").inc()
        else:
            t = specs[0]
            with _trace.span(
                "serve.tile", y0=t.y0, x0=t.x0,
                h=t.y1 - t.y0, w=t.x1 - t.x0,
            ):
                patch = lr[t.hy0 : t.hy1, t.hx0 : t.hx1]
                if self._pool is not None:
                    # predict_batch_exact on a 1-stack is bit-identical
                    # to predict_image on the tile (the parity contract),
                    # so both backends stitch the same pixels.
                    outs = self._predict_stack(
                        patch[None, ..., None], exact=True
                    )
                else:
                    outs = [predict_image(self.model, patch)]
        self.telemetry.counter("engine.tiles").inc(len(specs))
        with _trace.span("serve.stitch", tiles=len(specs)):
            for t, sr in zip(specs, outs):
                cy0, cx0 = (t.y0 - t.hy0) * s, (t.x0 - t.hx0) * s
                cy1 = cy0 + (t.y1 - t.y0) * s
                cx1 = cx0 + (t.x1 - t.x0) * s
                request.out[t.y0 * s : t.y1 * s, t.x0 * s : t.x1 * s] = sr[
                    cy0:cy1, cx0:cx1
                ]

    # ------------------------------------------------------------------ #
    # supervision
    # ------------------------------------------------------------------ #
    def _supervisor_loop(self) -> None:
        """Heartbeat loop: respawn dead workers, retire wedged ones.

        With the process backend the same heartbeat also sweeps the
        process pool for workers that died *idle* (mid-job deaths are
        handled inline by the dispatcher that was waiting on them).
        """
        while not self._closed:
            time.sleep(self.supervise_interval)
            if self._closed:
                return
            if self._pool is not None:
                replaced = self._pool.supervise()
                if replaced:
                    self.telemetry.counter(
                        "engine.process_worker_respawns"
                    ).inc(replaced)
            now = time.monotonic()
            with self._workers_lock:
                if self._closed:
                    return
                for i, t in enumerate(self._workers):
                    if not t.is_alive():
                        self._workers[i] = self._spawn_worker()
                        self.telemetry.counter("engine.worker_respawns").inc()
                        continue
                    if self.wedge_timeout is None or t.name in self._retired:
                        continue
                    started = self._busy_since.get(t.name)
                    if started is not None and now - started > self.wedge_timeout:
                        # Python threads cannot be killed; retire it (it
                        # exits after its current job) and staff a spare.
                        self._retired.add(t.name)
                        self._workers[i] = self._spawn_worker()
                        self.telemetry.counter("engine.workers_wedged").inc()
                        self.telemetry.counter("engine.worker_respawns").inc()

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
        if self._supervisor is not None:
            self._supervisor.join(timeout=self.supervise_interval + 5.0)
        if not wait:
            for job in self._scheduler.drain():
                self._queue_depth.dec()
                job.request.fail(EngineClosed("engine shut down"))
                job.request.finish_jobs(1)
        self._scheduler.close()
        with self._workers_lock:
            workers = list(self._workers)
        for t in workers:
            t.join(timeout=30.0)
        if self._pool is not None:
            # After the dispatcher threads are gone nothing submits to the
            # pool: reap every worker process and unlink the shared-memory
            # arena so a drained engine leaves no /dev/shm residue.
            self._pool.shutdown()
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
        # The resolved per-conv kernel selection (repro.kernels): backend
        # plus one {node, shape, kernel, source} row per conv.  getattr —
        # tests swap self.model for duck-typed doubles.
        kernel_plan = getattr(self.model, "kernel_plan", None)
        if self.compiled and kernel_plan is not None:
            snap["kernels"] = kernel_plan.stats()
        if self._pool is not None:
            snap["dataplane"] = self._pool.stats()
        if self.fault_injector is not None:
            snap["fault_injector"] = self.fault_injector.stats()
        config = self.config.to_dict()
        config.update({
            "model": self.key.name,
            "scale": self.key.scale,
            "precision": self.key.precision,
            "workers": len(self._workers),
            "halo": self.halo,
            "compiled": self.compiled,
            "compile_fallback": self.compile_fallback,
            "supervised": self._supervisor is not None,
            "cores": self._blas_pool.cores,
            "blas_threads": self._blas_pool.threads(),
        })
        snap["config"] = config
        return snap
