"""Load generation: closed-loop callers, open-loop Poisson arrivals, HTTP client.

All load comes from one process with at most ``clients`` threads: the
calling thread drives client 0 and one extra thread drives each other
client.  ``send(client, cls, frame)`` performs one request and
returns ``(error, payload, trace_id)``; the loops time it, then reduce
the payload to a digest so no response is kept in memory.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import socket
import threading
import time
from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from workloads import FrameStream, Workload, open_schedule

Send = Callable[[int, int, int], Tuple[str, object, str]]

#: Head start before an open loop's first arrival is due.
LEAD_S = 0.05


@dataclass
class Sample:
    """One request.  Times are ``time.perf_counter()`` seconds."""

    cls: int
    frame: int
    due: float          # when it was due (open loop) or issued (closed loop)
    sent: float
    done: float
    wait: float = 0.0   # open loop: time a due request waited for a free connection
    lag: float = 0.0    # open loop: how late the generator sent it once it could
    error: str = ""
    digest: str = ""
    trace_id: str = ""

    @property
    def latency_ms(self) -> float:
        """Latency from the due time; a failed request misses every limit."""
        return float("inf") if self.error else (self.done - self.due) * 1e3

    def to_row(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    @classmethod
    def from_row(cls, row: Sequence) -> "Sample":
        return cls(*row)


def digest(payload) -> str:
    """sha256 of a response: netpbm bytes, or the raw bytes of an array."""
    if isinstance(payload, np.ndarray):
        payload = np.ascontiguousarray(payload)
    return hashlib.sha256(payload).hexdigest()


def _finish(sample: Sample, result: Tuple[str, object, str]) -> Sample:
    error, payload, trace_id = result
    sample.error, sample.trace_id = error, trace_id
    if not error:
        sample.digest = digest(payload)
    return sample


def _run_clients(clients: int, body: Callable[[int], None]) -> None:
    threads = [threading.Thread(target=body, args=(k,), daemon=True)
               for k in range(1, clients)]
    for t in threads:
        t.start()
    body(0)
    for t in threads:
        t.join()


def closed_loop(request: Callable[[], Tuple[int, int]], send: Send,
                clients: int, seconds: float,
                min_samples: int = 0) -> Tuple[List[Sample], float]:
    """Each client sends its next request when the previous one returns.

    Runs for ``seconds`` and, if needed, on until ``min_samples`` requests
    have completed.  Returns the samples and the phase start time.
    """
    samples: List[Sample] = []
    start = time.perf_counter()
    end = start + seconds

    def body(k: int) -> None:
        while True:
            cls, frame = request()
            t0 = time.perf_counter()
            result = send(k, cls, frame)
            t1 = time.perf_counter()
            samples.append(_finish(Sample(cls, frame, t0, t0, t1), result))
            if t1 >= end and len(samples) >= min_samples:
                return

    _run_clients(clients, body)
    return samples, start


def open_loop(schedule: Sequence[Tuple[float, int, int]], send: Send,
              clients: int) -> Tuple[List[Sample], float]:
    """Send each ``(offset, cls, frame)`` at its due time over ``clients``
    connections, whatever the state of earlier requests.

    A due request waits for the next free connection (``wait``); a free
    connection sleeps until the due time (oversleep shows as ``lag``).
    Latency counts from the due time, so a stall is charged to every
    request queued behind it.
    """
    samples: List[Optional[Sample]] = [None] * len(schedule)
    counter = itertools.count()
    start = time.perf_counter() + LEAD_S

    def body(k: int) -> None:
        while True:
            i = next(counter)
            if i >= len(schedule):
                return
            offset, cls, frame = schedule[i]
            due = start + offset
            pulled = time.perf_counter()
            if pulled < due:
                time.sleep(due - pulled)
            sent = time.perf_counter()
            result = send(k, cls, frame)
            done = time.perf_counter()
            samples[i] = _finish(Sample(
                cls, frame, due, sent, done,
                wait=max(0.0, pulled - due), lag=sent - max(due, pulled),
            ), result)

    _run_clients(clients, body)
    return samples, start  # type: ignore[return-value]


def drive(wl: Workload, seed: int, phase: int, seconds: float,
          stream: FrameStream, send: Send, clients: int,
          timed: bool) -> Tuple[List[Sample], float]:
    """One phase of ``wl``'s load, open or closed loop.  A timed phase
    runs on until it holds ``wl.min_requests`` requests."""
    if wl.open_loop:
        length = wl.phase_seconds(seconds) if timed else seconds
        return open_loop(open_schedule(wl, seed, phase, length, stream), send, clients)
    return closed_loop(stream.take, send, clients, seconds,
                       wl.min_requests if timed else 0)


def classify_response(status: int, degraded: Optional[str]) -> str:
    """Failure reason for an HTTP response, or "" when it may be checked."""
    if status != 200:
        return f"status {status}"
    if (degraded or "").strip().lower() == "true":
        return "degraded"
    return ""


class HttpClient:
    """Keep-alive connections to ``POST /v1/upscale``, one per client.

    Sets ``TCP_NODELAY`` on its own sockets so the client adds no Nagle
    delay of its own; each request carries a unique ``X-Trace-Id`` the
    server adopts, which joins client and server timings.
    """

    def __init__(self, port: int, bodies: Sequence[Sequence[bytes]],
                 clients: int, tag: int, timeout: float = 30.0) -> None:
        self.port = port
        self.bodies = bodies
        self.timeout = timeout
        self._tag = tag & 0xFFFFFFFF
        self._seq = itertools.count()
        self._conns: List[Optional[http.client.HTTPConnection]] = [None] * clients

    def _conn(self, k: int) -> http.client.HTTPConnection:
        conn = self._conns[k]
        if conn is None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=self.timeout)
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conns[k] = conn
        return conn

    def send(self, k: int, cls: int, frame: int) -> Tuple[str, bytes, str]:
        trace_id = f"{self._tag:08x}{next(self._seq) & 0xFFFFFFFF:08x}"
        headers = {"Content-Type": "application/octet-stream",
                   "X-Trace-Id": trace_id}
        try:
            conn = self._conn(k)
            conn.request("POST", "/v1/upscale", self.bodies[cls][frame], headers)
            resp = conn.getresponse()
            payload = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self._drop(k)
            return f"exception: {exc!r}", b"", trace_id
        return classify_response(resp.status, resp.getheader("X-Degraded")), \
            payload, trace_id

    def _drop(self, k: int) -> None:
        conn, self._conns[k] = self._conns[k], None
        if conn is not None:
            conn.close()

    def close(self) -> None:
        for k in range(len(self._conns)):
            self._drop(k)
