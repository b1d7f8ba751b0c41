"""Model registry: lazy load → collapse → (optional) quantize → memoize.

The registry is the serving-side counterpart of the paper's deploy story:
training artifacts are *expanded* SESR checkpoints, but what a server must
run is the collapsed inference network (Fig. 2(d)), optionally int8-
quantized for NPU parity.  It builds that network with the same two calls
``repro.api`` and the CLI make — :func:`repro.deploy.load` then
:func:`repro.deploy.to_deployable` — so a served model equals
``api.collapse(api.load(name, scale))`` by construction.  Collapse is exact
but not free, so the registry performs it **exactly once** per
:class:`ModelKey` — ``(name, scale, ckpt, precision)`` — under a lock, and
memoizes the resulting network for every later request, worker, and
engine to share (collapsed nets are stateless at inference time, so
sharing across threads is safe).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict

from ..deploy.pipeline import PRECISIONS, load, to_deployable
from ..nn import Module


@dataclass(frozen=True)
class ModelKey:
    """Identity of one deployable network variant.

    ``name`` accepts both zoo names (``"SESR-M5"``, ``"FSRCNN"``) and the
    CLI short forms (``"M5"``, ``"XL"``).  ``ckpt`` is a path to an
    expanded-checkpoint ``.npz`` (empty = paper initialisation), and
    ``precision`` selects the deployed arithmetic: ``"fp32"`` or ``"int8"``
    (weights-only post-training quantization via
    :func:`repro.deploy.quantize_sesr`, SESR models only).
    """

    name: str = "M5"
    scale: int = 2
    ckpt: str = ""
    precision: str = "fp32"

    def __post_init__(self) -> None:
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {self.precision!r}; know {PRECISIONS}"
            )


class ModelRegistry:
    """Thread-safe memoizing loader of collapsed inference networks."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._models: Dict[ModelKey, Module] = {}
        self._lock = threading.Lock()
        self._collapse_counts: Dict[ModelKey, int] = {}
        # Plan cache: ModelKey -> CompiledModel.  A separate lock so a slow
        # compile never blocks plain get() callers (and because _lock is
        # not reentrant — get_compiled calls get()).
        self._compiled: Dict[ModelKey, Module] = {}
        self._compile_lock = threading.Lock()
        self._compile_counts: Dict[ModelKey, int] = {}

    def get(self, key: ModelKey) -> Module:
        """Return the deployable network for ``key``, building it once.

        The build (load → collapse → quantize) runs under the registry
        lock: concurrent first requests for the same key block instead of
        collapsing twice.  ``int8`` on a model that is not SESR raises
        :class:`ValueError`.
        """
        model = self._models.get(key)
        if model is not None:
            return model
        with self._lock:
            if key not in self._models:
                self._models[key] = self._build(key)
            return self._models[key]

    def _build(self, key: ModelKey) -> Module:
        trained = load(key.name, key.scale, key.ckpt, self.seed)
        deployed = to_deployable(trained, key.precision)
        if hasattr(trained, "collapse"):
            self._collapse_counts[key] = self._collapse_counts.get(key, 0) + 1
        return deployed

    def get_compiled(self, key: ModelKey) -> Module:
        """Return the compiled plan for ``key``, compiling at most once.

        This is the serving plan cache: capture → optimise → plan runs
        once per key; every engine/worker thereafter executes the same
        :class:`~repro.compile.CompiledModel` (its per-shape arenas are
        thread-local, so sharing is safe).  Every key :meth:`get` can
        build compiles; a model the compiler cannot capture raises
        :class:`~repro.compile.CaptureError`.
        """
        compiled = self._compiled.get(key)
        if compiled is not None:
            return compiled
        eager = self.get(key)  # outside _compile_lock: get() takes _lock
        with self._compile_lock:
            if key not in self._compiled:
                from ..compile import compile_model

                self._compiled[key] = compile_model(eager)
                self._compile_counts[key] = (
                    self._compile_counts.get(key, 0) + 1
                )
            return self._compiled[key]

    def compile_count(self, key: ModelKey) -> int:
        """How many times ``key`` was compiled (tests pin this to <= 1)."""
        return self._compile_counts.get(key, 0)

    def collapse_count(self, key: ModelKey) -> int:
        """How many times ``key`` was collapsed (tests pin this to <= 1)."""
        return self._collapse_counts.get(key, 0)

    def loaded_keys(self) -> list:
        return sorted(self._models, key=lambda k: (k.name, k.scale, k.ckpt,
                                                   k.precision))

    def evict(self, key: ModelKey) -> bool:
        """Drop a memoized network (e.g. after a checkpoint refresh)."""
        with self._compile_lock:
            self._compiled.pop(key, None)
        with self._lock:
            return self._models.pop(key, None) is not None

    def stats(self) -> Dict[str, object]:
        with self._lock:
            out = {
                "models_loaded": len(self._models),
                "collapses": dict(
                    (f"{k.name}:x{k.scale}:{k.precision}", v)
                    for k, v in self._collapse_counts.items()
                ),
            }
        with self._compile_lock:
            out["plans_compiled"] = len(self._compiled)
            out["compiles"] = dict(
                (f"{k.name}:x{k.scale}:{k.precision}", v)
                for k, v in self._compile_counts.items()
            )
        return out
