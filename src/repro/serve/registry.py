"""Model registry: lazy load → collapse → (optional) quantize → memoize.

The registry is the serving-side counterpart of the paper's deploy story:
training artifacts are *expanded* SESR checkpoints, but what a server must
run is the collapsed inference network (Fig. 2(d)), optionally int8-
quantized for NPU parity.  Collapse is exact but not free, so the registry
performs it **exactly once** per :class:`ModelKey` — ``(name, scale, ckpt,
precision)`` — under a lock, and memoizes the resulting network for every
later request, worker, and engine to share (collapsed nets are stateless at
inference time, so sharing across threads is safe).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict

from .. import zoo
from ..nn import Module, load_state
from ..train.checkpoint import CheckpointCorrupt

PRECISIONS = ("fp32", "int8")


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


def build_training_model(name: str, scale: int, seed: int = 0) -> Module:
    """Instantiate the expanded (training-time) network for ``name``.

    Resolution goes through the zoo registry so serving names stay in sync
    with the paper's tables; CLI short forms are expanded to ``SESR-*``.
    """
    for candidate in (name, name.upper(), f"SESR-{name.upper()}"):
        entry = zoo.ZOO.get(candidate)
        if entry is not None and entry.factory is not None:
            return entry.factory(scale=scale, seed=seed)
    raise KeyError(
        f"unknown model {name!r}; deployable zoo entries: "
        f"{zoo.factory_names()}"
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
        trained = build_training_model(key.name, key.scale, self.seed)
        if key.ckpt:
            try:
                load_state(trained, key.ckpt)
            except FileNotFoundError:
                raise
            except (KeyError, ValueError) as exc:
                # Wrong architecture / missing keys: a caller error, but
                # keep the message pointed at the offending file.
                raise type(exc)(
                    f"checkpoint {key.ckpt!r} does not match model "
                    f"{key.name!r}: {exc}"
                ) from exc
            except Exception as exc:  # zipfile.BadZipFile, zlib.error, ...
                raise CheckpointCorrupt(
                    f"checkpoint {key.ckpt!r} is unreadable (truncated or "
                    f"damaged): {exc}"
                ) from exc
        if hasattr(trained, "collapse"):
            deployed = trained.collapse()
            self._collapse_counts[key] = self._collapse_counts.get(key, 0) + 1
        else:
            # FSRCNN has no linear blocks to collapse; deploy it as-is.
            deployed = trained
        if key.precision == "int8":
            from ..core.sesr import CollapsedSESR
            from ..deploy import quantize_sesr

            if not isinstance(deployed, CollapsedSESR):
                raise ValueError(
                    f"precision 'int8' requires a SESR model, got "
                    f"{key.name!r}"
                )
            deployed = quantize_sesr(deployed)
        deployed.eval()
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
