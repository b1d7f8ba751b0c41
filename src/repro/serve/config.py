"""``EngineConfig`` — the one value object that configures serving.

A frozen, validated dataclass that callers build once and hand to
``InferenceEngine(registry, key, config=...)``, the engine's only
constructor signature: the CLI builds one from its flags and prints it at
startup, tests build variants with :meth:`EngineConfig.replace`, and
``/v1/stats`` echoes it back.

Stateful collaborators (an injected :class:`~repro.serve.Telemetry`, a
pre-built :class:`~repro.resilience.CircuitBreaker`, a chaos
:class:`~repro.resilience.FaultInjector`) are *not* configuration and stay
explicit keyword arguments on the engine; the config carries only values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Tuple, Union

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
        tuple.  Each tile is padded by the model's receptive radius, which
        makes tiling exact.
    max_batch:
        The largest cross-request batch fed to one forward pass.
    batch_window_ms:
        Cross-request dynamic batching: how long a queued tile job may
        wait for same-shape company before it is dispatched anyway.
        ``0`` (the default) disables coalescing — every job dispatches
        immediately.  Coalesced batches are *bit-identical* to unbatched
        serving: no inference conv GEMM spans two samples (see
        :func:`repro.nn.ops.conv_gemm`).
    cache_size:
        LRU entries for finished outputs (0 disables).
    max_pending:
        Bounded request-slot pool; admission beyond it raises
        :class:`~repro.serve.EngineOverloaded`.
    default_timeout:
        Per-request deadline in seconds when the caller passes none.
    breaker_threshold, breaker_cooldown:
        Circuit breaker built for the engine's model key when no breaker
        instance is injected.
    degraded_mode:
        ``True`` = failed requests return the bicubic fallback tagged
        ``degraded=True`` instead of raising.
    """

    workers: int = 4
    tile: Union[int, Tuple[int, int]] = 96
    max_batch: int = 8
    batch_window_ms: float = 0.0
    cache_size: int = 128
    max_pending: int = 32
    default_timeout: float = 30.0
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0
    degraded_mode: bool = False

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
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be non-negative")

    # ------------------------------------------------------------------ #
    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly view (``/v1/stats`` config section)."""
        out = dataclasses.asdict(self)
        out["tile"] = list(self.tile)  # type: ignore[list-item]
        return out

    def describe(self) -> str:
        """One human line per knob group — what ``repro serve`` prints."""
        th, tw = self.tile  # normalised in __post_init__
        batching = (
            f"window {self.batch_window_ms:g} ms, max {self.max_batch}"
            if self.batch_window_ms > 0 else
            f"off (max {self.max_batch})"
        )
        return "\n".join([
            f"  workers {self.workers}, tile {th}x{tw}",
            f"  batching: cross-request {batching}",
            f"  admission: {self.max_pending} slots, timeout "
            f"{self.default_timeout:g}s, cache {self.cache_size}",
            f"  resilience: breaker "
            f"{self.breaker_threshold}/{self.breaker_cooldown:g}s, "
            f"degraded {'on' if self.degraded_mode else 'off'}",
        ])
