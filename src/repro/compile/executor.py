"""Planned-buffer executor for compiled inference graphs.

:class:`CompiledModel` runs a fused :class:`~repro.compile.ir.Graph`
inside the arenas a :class:`~repro.compile.planner.BufferPlan` laid out.
It executes three ops — conv (with its fused relu/prelu/add epilogues),
deconv and depth-to-space, which is all the fusion passes leave of a
deployable graph — and rejects a graph holding any other node.  It is a
drop-in :class:`~repro.nn.Module`: ``forward`` takes and returns a
:class:`~repro.nn.Tensor`, so ``predict_image``, the tiling helpers, and
the serving engine work unchanged — which is also what makes the engine's
tile fan-out multithreaded execution of the plan: each worker thread
drives the same ``CompiledModel`` over its own tiles.

**Bit-exactness.**  Every kernel replays the eager :mod:`repro.nn.ops`
float operation chain exactly, only redirecting *where* results land:

* conv = zero-border pad scratch → :func:`repro.nn.ops.conv_gemm`, the
  helper eager ``conv2d`` calls (for each sample and each band of whole
  output rows: the band's patches copied into the arena's band-sized
  ``cols``, one sgemm into the band's rows of the destination) →
  broadcast bias add.  Fused epilogues then run in place on the conv's
  output: the identical elementwise maximum/minimum/multiply/add chain
  the eager relu/PReLU/residual add perform.
* depth-to-space is the same reshape/transpose, copied into a contiguous
  view of the destination; deconv runs the eager sub-pixel
  ``conv2d_transpose`` as a composite (its output is the FSRCNN graph
  output, so it allocates fresh anyway).

No conv GEMM spans two samples, so each sample of a stacked run is
byte-identical to its own N=1 run; that is what keeps the serving
engine's cross-request coalescing byte-identical to unbatched serving.
``tests/compile/test_executor.py`` pins byte-identity against the eager
models for every zoo variant, ``tests/compile/test_exact_batch.py``
stacked == single, ``tests/compile/test_banded_conv.py`` both across band
boundaries.

**Memory.**  Arenas are cached per ``(N, H, W)`` input shape in a
``threading.local`` — concurrent serve workers never share mutable
buffers, and repeat tiles of the same shape (the common serving case)
allocate nothing.  Scratch (one band of cols / PReLU temp / pad
borders) is shared across nodes within an arena; ``cols`` holds the
largest band of any conv, so it does not grow with the frame.  The graph
output is always freshly allocated per call: returning an arena view
would hand the caller a buffer the next request overwrites.

Instrumentation matches the eager path: the profiler sees the same
``im2col``/``gemm.blas``/``conv2d`` records (same analytic MACs), and
each run executes under one ``compile.execute`` tracing span.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..nn import Tensor, no_grad
from ..nn.modules import Module
from ..nn.ops import band_rows, conv2d_transpose, conv_gemm, resolve_padding
from ..obs import profiler as _profiler
from ..obs import span
from .ir import Graph, receptive_radius
from .planner import plan_buffers

#: The ops :class:`CompiledModel` executes (besides the graph input).
EXECUTED_OPS = ("conv", "deconv", "depth_to_space")


class CompiledModel(Module):
    """Executable form of a compiled graph (see :func:`repro.compile.compile_model`)."""

    def __init__(
        self, graph: Graph, pass_log: Optional[Sequence] = None,
    ) -> None:
        super().__init__()
        graph.infer_shapes()
        if len(graph.inputs) != 1 or len(graph.outputs) != 1:
            raise ValueError("CompiledModel expects one input and one output")
        for node in graph.nodes.values():
            if node.op != "input" and node.op not in EXECUTED_OPS:
                raise ValueError(
                    f"cannot execute {node.op} node {node.name!r}: "
                    f"CompiledModel runs {', '.join(EXECUTED_OPS)} "
                    f"(fuse the graph with PassManager first)"
                )
        self.graph = graph
        self.plan = plan_buffers(graph)
        self.pass_log = list(pass_log or [])
        self.source = graph.name
        self.receptive_radius = receptive_radius(graph)
        self.scale = int(round(graph.nodes[graph.outputs[0]].res_scale))
        self._steps = self._prepare()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._runs = 0
        self.eval()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CompiledModel({self.source}, nodes={len(self.graph.nodes)}, "
            f"slots={len(self.plan.slot_units)})"
        )

    @property
    def runs(self) -> int:
        """Completed :meth:`run` calls (all threads)."""
        with self._lock:
            return self._runs

    # ------------------------------------------------------------------ #
    # step preparation (once per model)
    # ------------------------------------------------------------------ #
    def _prepare(self) -> List[Dict[str, Any]]:
        steps: List[Dict[str, Any]] = []
        for node in self.graph.nodes.values():
            if node.op == "input":
                continue
            step: Dict[str, Any] = {
                "name": node.name,
                "op": node.op,
                "srcs": list(node.inputs),
                "is_output": node.name in self.graph.outputs,
                "channels": node.channels,
                "res_scale": node.res_scale,
            }
            if node.op == "conv":
                self._prepare_conv(node, step)
            elif node.op == "deconv":
                step["stride"] = int(node.attrs["stride"])
                step["w_t"] = Tensor(node.attrs["weight"])
                b = node.attrs.get("bias")
                step["b_t"] = None if b is None else Tensor(b)
            else:  # depth_to_space
                step["block"] = int(node.attrs["block"])
            steps.append(step)
        return steps

    def _prepare_conv(self, node, step: Dict[str, Any]) -> None:
        kh, kw = node.kernel()
        cin, cout = int(node.attrs["cin"]), int(node.attrs["cout"])
        step.update({
            "kernel": (kh, kw),
            "cin": cin,
            "cout": cout,
            "pad": resolve_padding((kh, kw), (1, 1), "same"),
            "bias": node.attrs.get("bias"),
            # The same values the eager conv2d's weight reshape produces.
            "wmat": np.ascontiguousarray(
                node.attrs["weight"].reshape(kh * kw * cin, cout)
            ),
        })
        eps = []
        for ep in node.epilogues:
            if ep[0] == "add":
                eps.append(("add", node.inputs[ep[1]]))
            elif ep[0] == "prelu":
                eps.append(("prelu", ep[1]))
            else:
                eps.append(("relu",))
        step["eps"] = eps

    # ------------------------------------------------------------------ #
    # arena management (once per (N, H, W) per thread)
    # ------------------------------------------------------------------ #
    def _layout(self, n: int, h: int, w: int) -> Dict[str, Any]:
        """Concrete buffer sizes for one input shape (also used by
        :meth:`memory_stats` without allocating)."""
        shapes: Dict[str, tuple] = {}
        for step in self._steps:
            oh = round(h * step["res_scale"])
            ow = round(w * step["res_scale"])
            shapes[step["name"]] = (n, oh, ow, step["channels"])
        slot_sizes = [0] * len(self.plan.slot_units)
        for name, slot in self.plan.slot_of.items():
            need = int(np.prod(shapes[name]))
            slot_sizes[slot] = max(slot_sizes[slot], need)
        cols = tmp = 0
        pad_shapes = set()
        for step in self._steps:
            tmp = max(tmp, int(np.prod(shapes[step["name"]])))
            if step["op"] != "conv":
                continue
            oh, ow = shapes[step["name"]][1:3]
            kh, kw = step["kernel"]
            band = min(band_rows(ow), oh) * ow
            cols = max(cols, band * kh * kw * step["cin"])
            (pt, pb), (pl, pr) = step["pad"]
            if pt or pb or pl or pr:
                ih = round(h * step["res_scale"])
                iw = round(w * step["res_scale"])
                pad_shapes.add(
                    (n, ih + pt + pb, iw + pl + pr, step["cin"])
                )
        return {
            "shapes": shapes,
            "slot_sizes": slot_sizes,
            "cols": cols,
            "tmp": tmp,
            "pad_shapes": pad_shapes,
        }

    def _arena(self, n: int, h: int, w: int) -> Dict[str, Any]:
        arenas = getattr(self._local, "arenas", None)
        if arenas is None:
            arenas = {}
            self._local.arenas = arenas
        arena = arenas.get((n, h, w))
        if arena is None:
            layout = self._layout(n, h, w)
            slots = [
                np.empty(size, dtype=np.float32)
                for size in layout["slot_sizes"]
            ]
            views = {}
            for name, slot in self.plan.slot_of.items():
                shape = layout["shapes"][name]
                need = int(np.prod(shape))
                views[name] = slots[slot][:need].reshape(shape)
            arena = {
                "shapes": layout["shapes"],
                "views": views,
                "cols": np.empty(layout["cols"], dtype=np.float32),
                "tmp": np.empty(layout["tmp"], dtype=np.float32),
                "pads": {},  # zero-bordered pad scratch, keyed by shape
            }
            arenas[(n, h, w)] = arena
        return arena

    def memory_stats(self, in_h: int, in_w: int, n: int = 1) -> Dict[str, int]:
        """Planned vs naive peak bytes for one input shape (float32).

        ``scratch_bytes`` is the arena's scratch on top of
        ``arena_bytes``: one band of im2col ``cols`` (the largest of any
        conv, see :func:`repro.nn.ops.conv_gemm`), the frame-sized PReLU
        temp and the zero-bordered pad buffers.  Nothing is allocated.
        """
        layout = self._layout(n, in_h, in_w)
        scratch = 4 * (
            layout["cols"] + layout["tmp"]
            + sum(int(np.prod(s)) for s in layout["pad_shapes"])
        )
        return {
            "arena_bytes": 4 * sum(layout["slot_sizes"]),
            "naive_bytes": self.plan.naive_bytes(in_h, in_w, n),
            "lower_bound_bytes": 4 * n * in_h * in_w
            * self.plan.lower_bound_units,
            "scratch_bytes": scratch,
            "slots": len(layout["slot_sizes"]),
        }

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        return Tensor(self.run(x.data))

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the plan on an NHWC array; returns a fresh array.

        Each sample of a stacked ``x`` (N > 1) is byte-identical to its own
        N=1 run: samples share one pad pass, and every conv builds im2col
        and issues GEMMs per band of one sample
        (:func:`repro.nn.ops.conv_gemm`).
        """
        x = np.asarray(x)
        if x.dtype != np.float32:
            x = x.astype(np.float32)
        if x.ndim != 4:
            raise ValueError(f"expected NHWC input, got shape {x.shape}")
        in_node = self.graph.nodes[self.graph.inputs[0]]
        if x.shape[3] != in_node.channels:
            raise ValueError(
                f"expected {in_node.channels} input channels, "
                f"got {x.shape[3]}"
            )
        n, h, w = x.shape[:3]
        arena = self._arena(n, h, w)
        values: Dict[str, np.ndarray] = {self.graph.inputs[0]: x}
        with span("compile.execute", model=self.source,
                  shape=f"{n}x{h}x{w}"):
            for step in self._steps:
                self._exec_step(step, values, arena)
        with self._lock:
            self._runs += 1
        return values[self.graph.outputs[0]]

    def _dst(self, step, arena) -> np.ndarray:
        if step["is_output"]:
            return np.empty(arena["shapes"][step["name"]], dtype=np.float32)
        return arena["views"][step["name"]]

    def _exec_step(self, step, values, arena) -> None:
        op = step["op"]
        if op == "conv":
            self._exec_conv(step, values, arena)
            return
        src = values[step["srcs"][0]]
        if op == "deconv":
            with no_grad():
                out = conv2d_transpose(
                    Tensor(src), step["w_t"], step["b_t"],
                    stride=step["stride"],
                ).data
            if step["is_output"]:
                values[step["name"]] = out
            else:
                dst = self._dst(step, arena)
                np.copyto(dst, out)
                values[step["name"]] = dst
            return
        # depth_to_space
        dst = self._dst(step, arena)
        r = step["block"]
        n, h, w, c = src.shape
        co = c // (r * r)
        src6 = src.reshape(n, h, w, r, r, co)
        np.copyto(
            dst.reshape(n, h, r, w, r, co),
            src6.transpose(0, 1, 3, 2, 4, 5),
        )
        values[step["name"]] = dst

    def _exec_conv(self, step, values, arena) -> None:
        src = values[step["srcs"][0]]
        n, h, w, cin = src.shape
        kh, kw = step["kernel"]
        (pt, pb), (pl, pr) = step["pad"]
        if pt or pb or pl or pr:
            pshape = (n, h + pt + pb, w + pl + pr, cin)
            padbuf = arena["pads"].get(pshape)
            if padbuf is None:
                # Zero-initialised once; only the interior is rewritten, so
                # the zero border — all np.pad produces — persists.
                padbuf = np.zeros(pshape, dtype=np.float32)
                arena["pads"][pshape] = padbuf
            padbuf[:, pt:pt + h, pl:pl + w, :] = src
            xp = padbuf
        else:
            xp = src
        dst = self._dst(step, arena)
        prof = _profiler.ACTIVE
        if prof is not None:
            t0 = time.perf_counter()
        conv_gemm(xp, step["wmat"], (kh, kw), out=dst, cols=arena["cols"])
        if step["bias"] is not None:
            np.add(dst, step["bias"], out=dst)
        if prof is not None:
            prof.record("conv2d", time.perf_counter() - t0,
                        macs=n * h * w * kh * kw * cin * step["cout"])
        for ep in step["eps"]:
            kind = ep[0]
            if kind == "relu":
                np.maximum(dst, 0.0, out=dst)
            elif kind == "prelu":
                t = arena["tmp"][:dst.size].reshape(dst.shape)
                np.minimum(dst, 0.0, out=t)
                np.multiply(t, ep[1], out=t)
                np.maximum(dst, 0.0, out=dst)
                np.add(dst, t, out=dst)
            else:  # fused residual add, in place on the conv output
                np.add(dst, values[ep[1]], out=dst)
        values[step["name"]] = dst
