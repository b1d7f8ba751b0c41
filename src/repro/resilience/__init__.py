"""``repro.resilience`` — fault tolerance for serving and training.

The primitives the rest of the system composes into "no request fails
without a fallback, no training run dies without a recovery path":

* :mod:`~repro.resilience.faults` — deterministic, seedable fault
  injection (:class:`FaultInjector`) used by the chaos test suite to
  prove the rest of this package actually works.
* :mod:`~repro.resilience.breaker` — :class:`CircuitBreaker`
  (closed → open → half-open) so a persistently failing model degrades
  to the bicubic fallback instead of failing every request.
* :mod:`~repro.resilience.guard` — :class:`NumericGuard`, the training
  side: NaN/Inf and loss-spike detection with skip-step and
  rollback-to-checkpoint escalation.

Wiring lives in :mod:`repro.serve.engine` (admission slots, deadlines,
breaker, degraded mode) and :mod:`repro.train` (atomic checkpoints,
auto-resume, rollback); behaviour contracts live in ``docs/robustness.md``
and are enforced by ``tests/resilience/``.
"""

from .breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from .faults import FaultInjector, InjectedFault
from .guard import GUARD_OK, GUARD_ROLLBACK, GUARD_SKIP, NumericGuard

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "FaultInjector",
    "InjectedFault",
    "GUARD_OK",
    "GUARD_ROLLBACK",
    "GUARD_SKIP",
    "NumericGuard",
]
