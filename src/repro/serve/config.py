"""``EngineConfig`` — the one value object that configures serving.

Four PRs of engine growth left :class:`~repro.serve.InferenceEngine` with
a dozen-plus constructor kwargs (workers, tiling, micro-batching, cache,
admission, timeouts, retries, breaker, degraded mode, supervision,
compilation, and now cross-request batching).  ``EngineConfig`` is the
redesigned public API: a frozen, validated dataclass that callers build
once and hand to ``InferenceEngine(registry, key, config=...)`` — the CLI
builds one from its flags and prints it at startup, tests build variants
with :meth:`EngineConfig.replace`, and ``/stats``/``/v1/stats`` echo it
back.  ``config=`` is the *only* constructor path: the historical
kwarg-soup shim rode through two releases as a DeprecationWarning and
is gone.

Stateful collaborators (an injected :class:`~repro.serve.Telemetry`, a
pre-built :class:`~repro.resilience.CircuitBreaker`, a chaos
:class:`~repro.resilience.FaultInjector`) are *not* configuration and stay
explicit keyword arguments on the engine; the config carries only values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..resilience import RetryPolicy

__all__ = ["EngineConfig"]

@dataclass(frozen=True)
class EngineConfig:
    """Everything that shapes how one :class:`InferenceEngine` serves.

    Parameters
    ----------
    workers:
        Worker threads sharing the batch scheduler (>= 1).
    tile:
        Core tile size in LR pixels (int or ``(th, tw)``); normalised to a
        tuple.
    halo:
        Context pixels per tile; ``None`` = the model's receptive radius
        (which makes tiling exact).
    microbatch, max_batch:
        Legacy *within-request* same-shape tile stacking (approximate,
        ~1 ulp), and the largest stack fed to one forward pass.
        ``max_batch`` also caps cross-request batches.
    batch_window_ms:
        Cross-request dynamic batching: how long a queued tile job may
        wait for same-shape company before it is dispatched anyway.
        ``0`` (the library default) disables coalescing — every job
        dispatches immediately, exactly the pre-batching engine.  Unlike
        ``microbatch``, coalesced batches are *bit-identical* to
        unbatched serving (exact per-sample GEMM; see
        ``repro.compile.CompiledModel.run``).
    cache_size:
        LRU entries for finished outputs (0 disables).
    max_pending:
        Bounded request-slot pool; admission beyond it raises
        :class:`~repro.serve.EngineOverloaded`.
    default_timeout:
        Per-request deadline in seconds when the caller passes none.
    retry:
        :class:`~repro.resilience.RetryPolicy` for transient tile faults.
    breaker_threshold, breaker_cooldown:
        Circuit breaker built for the engine's model key when no breaker
        instance is injected.
    degraded_mode:
        ``True`` = failed requests return the bicubic fallback tagged
        ``degraded=True`` instead of raising.
    supervise, supervise_interval, wedge_timeout:
        Worker-pool supervision (respawn dead workers; retire ones stuck
        past ``wedge_timeout``).
    compiled:
        Run the registry's compiled plan (bit-identical, fused, planned
        buffers); ``False`` is the ``--no-compile`` escape hatch.
    """

    workers: int = 4
    tile: Union[int, Tuple[int, int]] = 96
    halo: Optional[int] = None
    microbatch: bool = False
    max_batch: int = 8
    batch_window_ms: float = 0.0
    cache_size: int = 128
    max_pending: int = 32
    default_timeout: float = 30.0
    retry: RetryPolicy = RetryPolicy()
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0
    degraded_mode: bool = False
    supervise: bool = True
    supervise_interval: float = 0.2
    wedge_timeout: Optional[float] = None
    compiled: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        tile = self.tile
        if isinstance(tile, int):
            tile = (tile, tile)
        else:
            tile = tuple(int(t) for t in tile)
            if len(tile) != 2:
                raise ValueError("tile must be an int or a (th, tw) pair")
        if tile[0] <= 0 or tile[1] <= 0:
            raise ValueError("tile dimensions must be positive")
        object.__setattr__(self, "tile", tile)
        if self.halo is not None and self.halo < 0:
            raise ValueError("halo must be non-negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be non-negative")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.default_timeout <= 0:
            raise ValueError("default_timeout must be positive")
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError("retry must be a RetryPolicy")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be non-negative")
        if self.supervise_interval <= 0:
            raise ValueError("supervise_interval must be positive")
        if self.wedge_timeout is not None and self.wedge_timeout <= 0:
            raise ValueError("wedge_timeout must be positive when set")

    # ------------------------------------------------------------------ #
    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly view (``/stats`` config section, CLI startup)."""
        out = dataclasses.asdict(self)
        out["tile"] = list(self.tile)  # type: ignore[list-item]
        out["retry"] = dataclasses.asdict(self.retry)
        return out

    def describe(self) -> str:
        """One human line per knob group — what ``repro serve`` prints."""
        th, tw = self.tile  # normalised in __post_init__
        batching = (
            f"window {self.batch_window_ms:g} ms, max {self.max_batch}"
            if self.batch_window_ms > 0 else
            f"off (max {self.max_batch})"
        )
        wedge = ("-" if self.wedge_timeout is None
                 else f"{self.wedge_timeout:g}s")
        return "\n".join([
            f"  workers {self.workers}, tile {th}x{tw}, halo "
            f"{'auto' if self.halo is None else self.halo}, "
            f"compiled {'on' if self.compiled else 'off'}",
            f"  batching: cross-request {batching}; "
            f"microbatch {'on' if self.microbatch else 'off'}",
            f"  admission: {self.max_pending} slots, timeout "
            f"{self.default_timeout:g}s, cache {self.cache_size}",
            f"  resilience: {self.retry.max_attempts} attempts, breaker "
            f"{self.breaker_threshold}/{self.breaker_cooldown:g}s, "
            f"degraded {'on' if self.degraded_mode else 'off'}, "
            f"supervise {'on' if self.supervise else 'off'} "
            f"(wedge {wedge})",
        ])
