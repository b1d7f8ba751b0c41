"""The four serving workloads: seeded frame pools, mixes and arrival schedules.

Everything a workload sends is derived from ``(workload, seed)``, so the
same seed gives the same frames, the same request order and the same
arrival times on every commit.  The program under test only ever sees
the generated inputs.
"""

from __future__ import annotations

import math
import threading
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

MODEL = "M5"
SCALE = 2
#: ``EngineConfig`` / ``repro serve`` default tile; the oracle tiles the same way.
TILE = 96
WARMUP_S = 3.0
#: A p95 needs 10 samples beyond it (200); 10% margin so a phase never
#: ends one sample short.
MIN_SAMPLES = 220
MIN_CLASS_SAMPLES = 50


@dataclass(frozen=True)
class FrameClass:
    """One input size of a workload: LR shape, distinct frames, share of requests."""

    name: str
    shape: Tuple[int, ...]
    pool: int
    share: float

    @property
    def lr_pixels(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def out_pixels(self) -> int:
        return self.lr_pixels * SCALE * SCALE


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str          # "inproc" (InferenceEngine.upscale) or "http"
    classes: Tuple[FrameClass, ...]
    clients: int            # callers or connections, capped at nproc
    rate: float = 0.0       # Poisson arrivals per second; 0 means a closed loop
    zipf: Optional[float] = None   # skewed reuse of the pool instead of cycling it

    @property
    def open_loop(self) -> bool:
        return self.rate > 0

    @property
    def expect_hits(self) -> bool:
        """Only skewed reuse repeats a frame within the cache's reach; a
        cycled pool larger than the cache never does."""
        return self.zipf is not None

    @property
    def smallest(self) -> int:
        """Index of the class with the smallest frames (``small_p95_ms``)."""
        return min(range(len(self.classes)), key=lambda c: self.classes[c].lr_pixels)

    @property
    def min_requests(self) -> int:
        """Requests a timed phase needs: :data:`MIN_SAMPLES` of the
        smallest frames and :data:`MIN_CLASS_SAMPLES` of every class (a
        mix's p95 sits in its rarest, slowest class)."""
        need = [MIN_SAMPLES / self.classes[self.smallest].share]
        need += [MIN_CLASS_SAMPLES / c.share for c in self.classes]
        return math.ceil(max(need) - 1e-6)

    def phase_seconds(self, seconds: float) -> float:
        """Open-loop phase length: ``seconds``, stretched to
        :attr:`min_requests` arrivals."""
        return max(seconds, self.min_requests / self.rate)


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "batch_frames": Workload(
        "batch_frames", "inproc",
        (FrameClass("256x144", (144, 256), 160, 1.0),),
        clients=1,
    ),
    "api_thumbs": Workload(
        "api_thumbs", "http",
        (FrameClass("32x32", (32, 32), 1024, 1.0),),
        clients=2, rate=16.0,
    ),
    "api_mixed": Workload(
        "api_mixed", "http",
        (
            FrameClass("32x32", (32, 32), 1024, 0.7),
            FrameClass("128x128", (128, 128), 256, 0.2),
            FrameClass("256x144c", (144, 256, 3), 128, 0.1),
        ),
        clients=2,
    ),
    "repeat_hot": Workload(
        "repeat_hot", "inproc",
        (FrameClass("96x96", (96, 96), 256, 1.0),),
        clients=2, zipf=1.1,
    ),
}


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), stream])


def make_pool(wl: Workload, seed: int) -> List[List[np.ndarray]]:
    """Per class, the distinct uint8 frames the workload draws from."""
    rng = _rng(wl.name, seed, 0)
    return [
        [rng.integers(0, 256, c.shape, dtype=np.uint8) for _ in range(c.pool)]
        for c in wl.classes
    ]


def as_float(frame: np.ndarray) -> np.ndarray:
    """The float32 image a netpbm decoder yields for ``frame``."""
    return frame.astype(np.float32) / np.float32(255.0)


def netpbm(frame: np.ndarray) -> bytes:
    """Binary PGM (grey) or PPM (colour) body for a uint8 frame."""
    magic = b"P6" if frame.ndim == 3 else b"P5"
    h, w = frame.shape[:2]
    return magic + b"\n%d %d\n255\n" % (w, h) + frame.tobytes()


class FrameStream:
    """The seeded sequence of ``(class, frame)`` a workload requests.

    Classes come in blocks with exact shares (7 small, 2 medium, 1 large
    per 10 requests of a 70/20/10 mix), shuffled within each block, so no
    seed can bunch the rare, expensive frames together.  Within a class,
    frames cycle through the pool; the stream is shared by every phase of
    a run, so with a pool larger than the 128-entry output cache the
    cache never hits.  ``zipf`` workloads instead draw ranks with
    probability proportional to ``rank ** -zipf`` and map them to frames
    through a seeded permutation.  Thread-safe: the i-th call returns the
    i-th element whichever thread makes it.
    """

    _CHUNK = 4096

    def __init__(self, wl: Workload, seed: int) -> None:
        self._wl = wl
        self._rng = _rng(wl.name, seed, 1)
        self._lock = threading.Lock()
        self._next = [0] * len(wl.classes)
        self._labels: List[int] = []
        self._draws: List[int] = []
        shares = [c.share for c in wl.classes]
        size = next(b for b in range(1, 101)
                    if all(abs(s * b - round(s * b)) < 1e-9 for s in shares))
        self._block = np.repeat(np.arange(len(shares)),
                                [round(s * size) for s in shares])
        if wl.zipf is not None:
            pool = wl.classes[0].pool
            p = np.arange(1, pool + 1, dtype=np.float64) ** -wl.zipf
            self._p = p / p.sum()
            self._perm = self._rng.permutation(pool)

    def take(self) -> Tuple[int, int]:
        with self._lock:
            if not self._labels:
                self._labels = self._rng.permutation(self._block).tolist()[::-1]
            cls = self._labels.pop()
            if self._wl.zipf is None:
                i = self._next[cls]
                self._next[cls] += 1
                return cls, i % self._wl.classes[cls].pool
            if not self._draws:
                ranks = self._rng.choice(len(self._p), self._CHUNK, p=self._p)
                self._draws = [int(self._perm[r]) for r in ranks[::-1]]
            return cls, self._draws.pop()


def poisson_arrivals(rng: np.random.Generator, rate: float,
                     seconds: float) -> np.ndarray:
    """Arrival offsets of a Poisson process conditioned on its count.

    Exactly ``round(rate * seconds)`` arrivals, placed as sorted uniform
    draws over the phase, so every seed offers the same load and only
    the clustering of arrivals varies.
    """
    n = int(round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, n))


def open_schedule(wl: Workload, seed: int, phase: int, seconds: float,
                  stream: FrameStream) -> List[Tuple[float, int, int]]:
    """``(due offset, class, frame)`` for every request of one open-loop phase."""
    offsets = poisson_arrivals(_rng(wl.name, seed, 10 + phase), wl.rate, seconds)
    return [(float(t), *stream.take()) for t in offsets]
