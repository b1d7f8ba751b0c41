"""Deterministic fault injection for chaos testing the serving path.

A :class:`FaultInjector` is a hook the inference engine calls once per
tile job, and once per coalesced-batch attempt
(:meth:`FaultInjector.on_tile`).  Every decision — raise a fault, add
latency — derives from the constructor arguments and a seeded RNG, so a
given injector produces the same fault schedule on every run.  That
determinism is what lets the chaos suite assert exact outcomes ("calls
1–2 fail, call 3 succeeds and the output is bit-identical to the clean
engine") instead of flaky probabilistic ones.

Faults come in two flavours:

* :class:`InjectedFault` — an ordinary exception, standing in for a
  poisoned tile / compute failure.  It fails the tile's request, which
  counts toward the circuit breaker.
* latency — ``time.sleep`` inside the worker, standing in for a stuck
  BLAS call or an overloaded core.  Trips request deadlines.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict


class InjectedFault(RuntimeError):
    """A synthetic tile-compute failure."""


class FaultInjector:
    """Seedable, thread-safe source of deterministic faults.

    Parameters
    ----------
    seed:
        Seeds the RNG used by ``fail_rate`` draws.
    fail_first:
        The first ``n`` calls raise :class:`InjectedFault` (transient
        faults: the model path recovers afterwards).
    fail_rate:
        Probability in ``[0, 1]`` that any later call raises
        :class:`InjectedFault`; draws come from the seeded RNG under the
        injector lock, so the schedule is reproducible even with
        concurrent workers (the *assignment* of faults to call indices is
        fixed; which thread draws each index may vary).
    persistent:
        Every call fails — the "model is poisoned" scenario that must
        open the circuit breaker.
    latency, latency_every:
        Sleep ``latency`` seconds on every ``latency_every``-th call
        (0 disables), simulating a stuck worker.
    """

    def __init__(
        self,
        seed: int = 0,
        fail_first: int = 0,
        fail_rate: float = 0.0,
        persistent: bool = False,
        latency: float = 0.0,
        latency_every: int = 0,
    ) -> None:
        if not 0.0 <= fail_rate <= 1.0:
            raise ValueError("fail_rate must be in [0, 1]")
        if fail_first < 0 or latency < 0 or latency_every < 0:
            raise ValueError("fault knobs must be non-negative")
        self.fail_first = fail_first
        self.fail_rate = fail_rate
        self.persistent = persistent
        self.latency = latency
        self.latency_every = latency_every
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.calls = 0
        self.faults_injected = 0
        self.delays_injected = 0

    def on_tile(self) -> None:
        """Engine hook: called once per tile job or batch, may raise/sleep."""
        with self._lock:
            self.calls += 1
            n = self.calls
            fault = (
                self.persistent
                or n <= self.fail_first
                or (self.fail_rate > 0.0
                    and self._rng.random() < self.fail_rate)
            )
            delay = 0.0
            if (not fault and self.latency > 0.0
                    and self.latency_every > 0
                    and n % self.latency_every == 0):
                delay = self.latency
            if fault:
                self.faults_injected += 1
            elif delay:
                self.delays_injected += 1
        if fault:
            raise InjectedFault(f"injected tile fault on call {n}")
        if delay:
            time.sleep(delay)

    def stats(self) -> Dict[str, int]:
        """Injection accounting, shaped for ``engine.stats()``."""
        with self._lock:
            return {
                "calls": self.calls,
                "faults": self.faults_injected,
                "delays": self.delays_injected,
            }
