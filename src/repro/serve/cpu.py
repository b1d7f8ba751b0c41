"""The process's BLAS thread pool, sized from the live tile workers.

The engine gets its parallelism from tiles, one per worker, and each
worker's conv GEMMs run in the OpenBLAS NumPy loaded.  OpenBLAS keeps one
thread pool per process, sized to the cores when it loads, so ``W``
workers fanning every GEMM over that pool put ``W x cores`` compute
threads on the cores.  :class:`BlasPool` keeps workers x BLAS threads
within ``max(cores, workers)`` instead: every live engine registers its
workers, and the pool is sized to ``max(1, cores // live_workers)`` with
``live_workers`` summed over all of them.  The setter is process-wide
(even ``openblas_set_num_threads_local`` resizes the shared pool), so a
sum is the only rule that does not let the last engine constructed win.
The count the library had before the first registration comes back when
the last engine unregisters.

Output bits may depend on the pool size: FSRCNN's do on OpenBLAS's
SkylakeX kernels, and SESR-M5's do on its Haswell kernels.  So an oracle
for served bytes must run at the engine's BLAS thread count.

Only OpenBLAS is driven: the copy NumPy loaded, found in
``/proc/self/maps``.  Anywhere else (MKL, Accelerate, no ``/proc``) the
pool is left alone and :meth:`BlasPool.threads` reports ``None``.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Optional

__all__ = ["POOL", "BlasPool", "OpenBLAS", "cores", "find_openblas",
           "threads_per_worker"]

#: (getter, setter) symbol pairs, tried in order: the scipy-openblas
#: wheels NumPy ships prefix and suffix their ILP64 symbols; a plain
#: OpenBLAS exports the bare names.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def cores() -> int:
    """CPUs this process may run on: its affinity mask, not the host's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def threads_per_worker(workers: int, ncores: Optional[int] = None) -> int:
    """BLAS threads each of ``workers`` may use without oversubscribing
    ``ncores`` (default: this process's :func:`cores`)."""
    return max(1, (cores() if ncores is None else ncores) // max(1, workers))


class OpenBLAS:
    """The thread-count getter and setter of one loaded OpenBLAS."""

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(path)  # already mapped: this only takes a handle
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                break
        else:
            raise OSError(f"{path} exports no OpenBLAS thread-count setter")
        self._get = getattr(lib, get_name)
        self._get.argtypes = []
        self._get.restype = ctypes.c_int
        self._set = getattr(lib, set_name)
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None
        self._lib = lib

    def get(self) -> int:
        return int(self._get())

    def set(self, threads: int) -> None:
        self._set(threads)

    def corename(self) -> Optional[str]:
        """The kernel set chosen at load (``SkylakeX``, ``Haswell``, ...);
        output bits depend on it."""
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(self._lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
        return None


def find_openblas() -> Optional[OpenBLAS]:
    """The OpenBLAS NumPy loaded, or ``None`` if there is none to drive."""
    import numpy

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {parts[5].strip() for parts in
                     (line.split(None, 5) for line in fh) if len(parts) == 6}
    except OSError:
        return None
    # NumPy's own copy (numpy.libs/ in wheels) before any other: SciPy
    # wheels map a second OpenBLAS that NumPy's GEMMs never call.
    numpy_prefix = os.path.join(
        os.path.dirname(os.path.dirname(numpy.__file__)), "numpy")
    candidates = sorted(
        (p for p in paths if "openblas" in p.lower()),
        key=lambda p: (not p.startswith(numpy_prefix), p),
    )
    for path in candidates:
        try:
            return OpenBLAS(path)
        except OSError:
            continue
    return None


_UNSET = object()


class BlasPool:
    """Sizes one BLAS thread pool from the workers of every live engine.

    ``lib`` is anything with ``get()`` and ``set(threads)``; by default
    :func:`find_openblas` looks it up on first use.  ``cores`` fixes the
    core count instead of reading the affinity mask.  Tests pass both to
    drive a stand-in library.
    """

    def __init__(self, lib=_UNSET, cores: Optional[int] = None) -> None:
        self._lib = lib
        self._cores = cores
        self._lock = threading.Lock()
        self._workers = 0
        self._original: Optional[int] = None

    @property
    def cores(self) -> int:
        return cores() if self._cores is None else self._cores

    @property
    def live_workers(self) -> int:
        """Workers currently registered, summed over every engine."""
        with self._lock:
            return self._workers

    def register(self, workers: int) -> None:
        """Count ``workers`` more compute threads and resize the pool."""
        with self._lock:
            self._workers += workers
            self._resize()

    def unregister(self, workers: int) -> None:
        """Undo :meth:`register`; the last one restores the original size."""
        with self._lock:
            self._workers -= workers
            self._resize()

    def threads(self) -> Optional[int]:
        """The pool size read back from the library (``None``: no BLAS)."""
        with self._lock:
            lib = self._library()
            return None if lib is None else lib.get()

    def _library(self):
        if self._lib is _UNSET:
            self._lib = find_openblas()
        return self._lib

    def _resize(self) -> None:
        lib = self._library()
        if lib is None:
            return
        if self._workers > 0:
            if self._original is None:
                self._original = lib.get()
            lib.set(threads_per_worker(self._workers, self.cores))
        elif self._original is not None:
            lib.set(self._original)
            self._original = None


#: The pool of this process, shared by every engine in it.
POOL = BlasPool()
