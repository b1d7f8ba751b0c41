"""Per-op profiler for the ``repro.nn`` substrate.

Answers "where do the MACs and the milliseconds go?" from the real
substrate rather than from arithmetic alone: the instrumented primitives
in :mod:`repro.nn` (``conv2d`` and its im2col and GEMM phases,
``Tensor.__matmul__``) report wall-clock, call count, and *analytic* MACs
into the active :class:`Profiler`, so the expanded-vs-collapsed training
cost of the paper (§3.3, Fig. 3: 41.77B → 1.84B MACs per SESR-M5 forward)
is observable by running the actual model.

Zero overhead when disabled
---------------------------
Profiling is opt-in through :func:`profile`, and the instrumented ops are
guarded by the module-level :data:`ACTIVE` attribute — a single global
load and ``None`` check per op call, no wrapper functions and no per-call
indirection.  With no profiler installed the hot paths pay nothing that
a throughput benchmark can measure.

Op naming convention
--------------------
``conv2d``
    One record per convolution call: wall-clock of the whole call and the
    analytic MAC count ``N·Ho·Wo·kh·kw·Cin·Cout``.
``im2col``
    The patch-materialisation phase *inside* ``conv2d`` (pad + strided
    view + reshape-copy).  Wall-clock only — it moves bytes, it multiplies
    nothing — and it is contained in ``conv2d``'s wall-clock, so do not
    sum the two.
``matmul``
    Standalone :class:`~repro.nn.Tensor` matmuls (the collapsed-training
    weight composition, attention-style heads, ...).  The GEMM inside
    ``conv2d`` is *not* double-reported here; its MACs belong to
    ``conv2d``, which makes :meth:`Profiler.total_macs` additive.
``gemm.blas``
    The sgemm phase *inside* a conv, eager or compiled.  Wall-clock only,
    contained in ``conv2d`` like ``im2col``.  The **call count** is the
    GEMM dispatch ledger: an inference conv records one ``gemm.blas`` per
    band of output rows of each sample (N per conv for an N-sample batch
    whose samples fit one band, see :func:`repro.nn.ops.conv_gemm`), and
    a conv that autograd records issues one.
``conv2d_bwd``
    The convolution backward pass (weight + input gradients), recorded
    only when a profiler is active while autograd runs.

The profiler is process-wide (one active profiler at a time) and
thread-safe: the serving worker pool and HTTP handler threads may record
concurrently.

The compiled executor (:mod:`repro.compile`) reports into the same
records: its planned-buffer convolutions emit ``conv2d``/``im2col``/
``gemm.blas`` entries with the identical analytic MAC convention, so ``repro profile``
and the cross-consistency tests see one accounting regardless of which
engine ran the model.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = ["OpStats", "Profiler", "profile", "ACTIVE"]

#: The installed profiler, or ``None`` when profiling is off.  Instrumented
#: ops read this module attribute directly (``profiler.ACTIVE``); it is the
#: whole fast-path guard.
ACTIVE: Optional["Profiler"] = None

_install_lock = threading.Lock()


@dataclass
class OpStats:
    """Running totals for one op name."""

    calls: int = 0
    total_ms: float = 0.0
    macs: int = 0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.calls if self.calls else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "total_ms": self.total_ms,
            "mean_ms": self.mean_ms,
            "macs": self.macs,
        }


class Profiler:
    """Accumulates per-op wall-clock, call counts, and analytic MACs."""

    #: Phase ops whose wall-clock is already contained in a parent op;
    #: excluded from additive totals.
    NESTED = frozenset({"im2col", "gemm.blas"})

    def __init__(self) -> None:
        self._stats: Dict[str, OpStats] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def record(self, op: str, seconds: float, macs: int = 0) -> None:
        """Add one op invocation (``seconds`` of wall-clock, ``macs`` MACs)."""
        with self._lock:
            st = self._stats.get(op)
            if st is None:
                st = self._stats[op] = OpStats()
            st.calls += 1
            st.total_ms += seconds * 1e3
            st.macs += macs

    def reset(self) -> None:
        with self._lock:
            self._stats = {}

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, OpStats]:
        """Copy of the per-op totals (safe to read while recording)."""
        with self._lock:
            return {
                name: OpStats(st.calls, st.total_ms, st.macs)
                for name, st in self._stats.items()
            }

    def total_macs(self) -> int:
        """Additive MAC total (``conv2d`` + ``matmul``; phases carry 0)."""
        return sum(st.macs for st in self.stats().values())

    def total_ms(self) -> float:
        """Wall-clock total over non-nested ops (phases are contained)."""
        return sum(
            st.total_ms
            for name, st in self.stats().items()
            if name not in self.NESTED
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Plain JSON-serialisable per-op summary, sorted by MACs then ms."""
        snap = self.stats()
        order = sorted(
            snap, key=lambda n: (-snap[n].macs, -snap[n].total_ms, n)
        )
        return {name: snap[name].to_dict() for name in order}

    # ------------------------------------------------------------------ #
    def write_jsonl(self, path: str, **meta) -> int:
        """Append one JSON line per op to ``path``; returns lines written.

        ``meta`` keys (model, mode, batch, ...) are merged into every line
        so a file can hold several profiling runs and stay self-describing.
        """
        lines: List[str] = []
        for name, st in self.summary().items():
            row = {"op": name, **st, **meta}
            lines.append(json.dumps(row, sort_keys=True))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n" if lines else "")
        return len(lines)


@contextmanager
def profile(profiler: Optional[Profiler] = None) -> Iterator[Profiler]:
    """Install a profiler for the duration of the block.

    Process-wide: every thread's instrumented ops record into it (which is
    how the serving worker pool gets profiled from the request thread).
    Only one profiler can be active at a time — nesting raises, because
    silently splitting records between two profilers would make both wrong.
    """
    global ACTIVE
    prof = profiler if profiler is not None else Profiler()
    with _install_lock:
        if ACTIVE is not None:
            raise RuntimeError("a profiler is already active")
        ACTIVE = prof
    try:
        yield prof
    finally:
        with _install_lock:
            ACTIVE = None
