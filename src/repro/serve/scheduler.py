"""Cross-request dynamic batching: the tile-job scheduler.

The paper's collapsed networks are so small (Table 3) that per-tile
inference cost is dominated by *dispatch* — Python layer traversal, pad +
im2col setup, BLAS call overhead — not MACs.  Within one request the
engine already amortises that via tile fan-out; this module amortises it
*across* requests: concurrent small requests (the "millions of users"
case, where each request is often a single tile) coalesce into one
forward pass instead of each paying full freight.

:class:`BatchScheduler` is the engine's work queue.  Workers ask it for
work and receive a *batch*: a list of :class:`TileJob` whose tiles all
share one ``(ModelKey, halo-shape)`` group and therefore stack into one
``CompiledModel.run``: one pad pass per layer and one im2col + GEMM per
band of one sample, so each tile's bits are those of its own run (see
:func:`repro.nn.ops.conv_gemm`).

Dispatch policy
---------------
A group's jobs are dispatched when any of:

* the group holds ``max_batch`` jobs (a full batch),
* its oldest job has waited ``window`` seconds (bounded queueing delay),
* the window is zero (coalescing disabled — every job dispatches
  immediately and alone), or
* the scheduler is closed (drain fast, never strand work).

**Fair share.**  Within a group, jobs are kept in per-request FIFO lanes
and batches are assembled round-robin across lanes, so a 1000-tile
request contributes at most ⌈max_batch / lanes⌉ tiles to each batch and
a one-tile request never waits behind a giant neighbour.  Across groups,
the one whose head job is oldest dispatches first (global FIFO in
arrival terms).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Deque, Hashable, List, Optional, Tuple

__all__ = ["BatchScheduler", "TileJob"]


class TileJob:
    """One unit of worker work: one tile of one in-flight request.

    ``spec`` is a :class:`~repro.deploy.tiled.TileSpec`.  ``group``
    identifies the shape class whose jobs may share a batch — the engine
    uses ``(model key, halo shape)`` — and ``request`` is opaque to the
    scheduler except for fair-share identity.
    """

    __slots__ = ("request", "spec", "group", "enqueued")

    def __init__(self, request, spec, group: Hashable = None) -> None:
        self.request = request
        self.spec = spec
        self.group = group
        self.enqueued = 0.0   # assigned by the scheduler


class _Group:
    """Per-shape pending jobs, in per-request FIFO lanes."""

    __slots__ = ("lanes", "size")

    def __init__(self) -> None:
        # request id -> FIFO of TileJob; OrderedDict gives the round-robin
        # rotation order (move_to_end after each take).
        self.lanes: "OrderedDict[int, Deque[TileJob]]" = OrderedDict()
        self.size = 0

    def add(self, job: TileJob) -> None:
        rid = id(job.request)
        lane = self.lanes.get(rid)
        if lane is None:
            lane = deque()
            self.lanes[rid] = lane
        lane.append(job)
        self.size += 1

    def oldest(self) -> float:
        """Enqueue time of the oldest pending job (lanes are FIFO)."""
        return min(lane[0].enqueued for lane in self.lanes.values())

    def take(self, limit: int) -> List[TileJob]:
        """Assemble up to ``limit`` jobs round-robin across request lanes."""
        out: List[TileJob] = []
        while len(out) < limit and self.lanes:
            for rid in list(self.lanes):
                lane = self.lanes[rid]
                out.append(lane.popleft())
                self.size -= 1
                if not lane:
                    del self.lanes[rid]
                else:
                    self.lanes.move_to_end(rid)
                if len(out) >= limit:
                    break
        return out


class BatchScheduler:
    """Coalesces same-group tile jobs from concurrent requests.

    Thread-safe; many producers (request threads) and many consumers
    (workers).  ``clock`` is injectable so the window policy is testable
    without sleeping.
    """

    def __init__(self, max_batch: int = 8, window: float = 0.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if window < 0:
            raise ValueError("window must be non-negative")
        self.max_batch = max_batch
        self.window = window
        self._clock = clock
        self._cond = threading.Condition()
        self._groups: "OrderedDict[Hashable, _Group]" = OrderedDict()
        self._depth = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    def put(self, job: TileJob) -> None:
        """Enqueue one job (accepted even while draining after close)."""
        with self._cond:
            job.enqueued = self._clock()
            group = self._groups.get(job.group)
            if group is None:
                group = _Group()
                self._groups[job.group] = group
            group.add(job)
            self._depth += 1
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def get(self, timeout: Optional[float] = None) -> Optional[List[TileJob]]:
        """Block for the next batch; ``None`` = closed and drained.

        With ``timeout`` set, also returns ``None`` when nothing became
        ready in time (callers distinguish via :attr:`closed`).
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                batch, next_ready = self._try_assemble()
                if batch is not None:
                    return batch
                if self._closed and self._depth == 0:
                    return None
                now = self._clock()
                waits = []
                if next_ready is not None:
                    waits.append(next_ready - now)
                if deadline is not None:
                    if deadline <= now:
                        return None
                    waits.append(deadline - now)
                self._cond.wait(min(waits) if waits else None)

    def _try_assemble(self) -> Tuple[Optional[List[TileJob]], Optional[float]]:
        """(ready batch, earliest future ready time) under the lock."""
        now = self._clock()
        best_key, best_oldest = None, None
        next_ready: Optional[float] = None
        for key, group in self._groups.items():
            if group.size == 0:
                continue
            oldest = group.oldest()
            ready = (
                self._closed
                or self.window == 0.0
                or group.size >= self.max_batch
                or now - oldest >= self.window
            )
            if ready:
                if best_oldest is None or oldest < best_oldest:
                    best_key, best_oldest = key, oldest
            else:
                due = oldest + self.window
                if next_ready is None or due < next_ready:
                    next_ready = due
        if best_key is None:
            return None, next_ready
        group = self._groups[best_key]
        # Window 0 means no coalescing: one job per dispatch, strict
        # arrival order, even under backlog.
        limit = 1 if self.window == 0.0 else self.max_batch
        batch = group.take(limit)
        if group.size == 0:
            del self._groups[best_key]
        self._depth -= len(batch)
        return batch, next_ready

    # ------------------------------------------------------------------ #
    # lifecycle / introspection
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop waiting on windows; remaining jobs drain, then ``get``
        returns ``None`` to every worker."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> List[TileJob]:
        """Remove and return every pending job (abrupt shutdown)."""
        with self._cond:
            jobs: List[TileJob] = []
            for group in self._groups.values():
                while group.size:
                    jobs.extend(group.take(group.size))
            self._groups.clear()
            self._depth = 0
            self._cond.notify_all()
            return jobs

    @property
    def closed(self) -> bool:
        return self._closed

    def depth(self) -> int:
        """Jobs currently queued, across all groups."""
        with self._cond:
            return self._depth
