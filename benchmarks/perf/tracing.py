"""The ``--trace`` run: spans and counts taken from outside the program.

:class:`Recorder` wraps each layer's public function where its caller
looks the name up (``repro.serve.http.decode_netpbm``, not
``repro.datasets.io.decode_netpbm``, because the handler calls the name
it imported), turns on ``repro.obs.profiler.profile()`` for the per-op
records, and adds an exporter to ``get_tracer()`` so the program's own
``serve.*``/``compile.*`` spans are kept too.  A target that no longer
exists is recorded as absent, so a change that deletes a layer can still
be measured.

Spans stay in memory and are written as JSONL when the run ends.  Each
carries name, start, end, span id, parent (the enclosing wrapped call on
the same thread), thread and trace id.  A span's self time is its
duration minus the part of it its children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from stats import mean, percentile
from workloads import SCALE

#: (module, attribute where the caller looks it up, span name)
TARGETS = (
    ("repro.serve.http", "SRRequestHandler.do_POST", "serve.http.do_POST"),
    ("repro.serve.http", "upscale_array_ex", "serve.http.upscale_array_ex"),
    ("repro.serve.http", "decode_netpbm", "datasets.io.decode_netpbm"),
    ("repro.serve.http", "encode_netpbm", "datasets.io.encode_netpbm"),
    ("repro.serve.engine", "InferenceEngine.upscale_ex", "serve.engine.upscale_ex"),
    ("repro.serve.engine", "array_digest", "serve.cache.array_digest"),
    ("repro.serve.cache", "LRUCache.get", "serve.cache.get"),
    ("repro.serve.scheduler", "BatchScheduler.get", "serve.scheduler.get"),
    ("repro.compile.executor", "CompiledModel.run", "compile.run"),
)

#: LR input pixels at or below which a request is in each size class.
SIZE_CLASSES = (("small", 32 * 32), ("medium", 128 * 128), ("large", None))

#: Per-layer metrics taken in the process that hosts the engine.
SERVER_METRICS = {
    "serve.http.handler_self_ms": "ms",
    "serve.http.colour_ms": "ms",
    **{f"datasets.io.{op}_{size}_ms": "ms"
       for op in ("decode", "encode") for size, _ in SIZE_CLASSES},
    "serve.engine.request_ms": "ms",
    "serve.engine.overhead_ms": "ms",
    "serve.scheduler.queue_wait_p50_ms": "ms",
    "serve.scheduler.queue_wait_p95_ms": "ms",
    "serve.scheduler.batch_size_mean": "jobs",
    "serve.scheduler.worker_idle_frac": "ratio",
    "serve.cache.lookup_ms": "ms",
    "compile.run_ms": "ms",
    "compile.runs_per_request": "count",
    "compile.gmac_s": "GMAC/s",
    "compile.arena_mb": "MiB",
    "nn.conv2d_ms": "ms",
    "nn.im2col_ms": "ms",
    "kernels.gemm_ms": "ms",
    "nn.conv2d_share": "ratio",
    "trace.absent_targets": "count",
}

Span = Tuple[str, float, float, int, int, int, Optional[dict]]
NAME, T0, T1, SID, PARENT, THREAD, ATTRS = range(7)


def size_class(lr_pixels: int) -> str:
    return next(name for name, limit in SIZE_CLASSES
                if limit is None or lr_pixels <= limit)


def quantile(values: List[float], q: float) -> Tuple[float, int]:
    """A per-layer quantile with its sample count (0.0 when never called)."""
    return percentile(values, q, strict=False), len(values)


def average(values: List[float]) -> Tuple[float, int]:
    return mean(values), len(values)


def per_request(total: float, requests: int) -> Tuple[float, int]:
    return (total / requests if requests else 0.0), requests


class Recorder:
    """Installs the wrappers between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.program_spans: list = []
        self.absent: List[str] = []
        self.models: Dict[int, object] = {}
        self.arenas: set = set()
        self.ops: Dict[str, Dict[str, float]] = {}
        self.t_start = self.t_stop = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list = []
        self._in_get: Dict[int, float] = {}
        self._first_get: Dict[int, float] = {}
        self._idle_tail: Dict[int, float] = {}
        self._frozen: List[Span] = []
        self._profile = self._profiler = self._current_span = None
        self._collect = False

    # -------------------------------------------------------------- #
    def start(self) -> None:
        for module, attr, name in TARGETS:
            self._patch(module, attr, name)
        try:
            from repro.obs import current_span, get_tracer, profiler
        except ImportError:
            self.absent.append("repro.obs")
        else:
            self._current_span = current_span
            self._profile = profiler.profile()
            self._profiler = self._profile.__enter__()
            get_tracer().add_exporter(self)
        self._collect = True
        self.t_start = time.perf_counter()

    def stop(self) -> None:
        self.t_stop = time.perf_counter()
        self._collect = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._profile is not None:
            self._profile.__exit__(None, None, None)
            self.ops = self._profiler.summary()
        self._frozen = list(self.spans)
        self._idle_tail = {
            tid: self.t_stop - t0 for tid, t0 in list(self._in_get.items())
        }

    def export(self, span) -> None:
        """Exporter hook for the program's tracer."""
        if self._collect:
            self.program_spans.append(span)

    # -------------------------------------------------------------- #
    def _patch(self, module: str, attr: str, name: str) -> None:
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return
        make = self._wrap_get if name == "serve.scheduler.get" else self._wrap
        setattr(owner, leaf, make(name, original))
        self._patched.append((owner, leaf, original))

    def _wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        describe = getattr(self, "_describe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((name, t0, t1, sid, parent, threading.get_ident(),
                              {"error": type(exc).__name__}))
                raise
            t1 = time.perf_counter()
            stack.pop()
            attrs = describe(args, kwargs, result) if describe else None
            spans.append((name, t0, t1, sid, parent, threading.get_ident(), attrs))
            return result

        return traced

    def _wrap_get(self, name: str, fn):
        """``BatchScheduler.get``: time blocked per worker, and how long
        each returned job waited since ``TileJob.enqueued``."""
        spans, ids = self.spans, self._ids
        in_get, first_get = self._in_get, self._first_get

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            t0 = time.perf_counter()
            first_get.setdefault(tid, t0)
            in_get[tid] = t0
            try:
                batch = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                in_get.pop(tid, None)
            # TileJob.enqueued is stamped with the scheduler's default
            # clock, time.monotonic.
            now = time.monotonic()
            waits = [(now - job.enqueued) * 1e3 for job in batch or ()
                     if hasattr(job, "enqueued")]
            spans.append((name, t0, t1, next(ids), 0, tid,
                          {"jobs": len(batch or ()), "waits": waits}))
            return batch

        return traced

    # Attributes recorded per span, by span name ---------------------- #
    @staticmethod
    def _describe_serve_http_do_POST(args, kwargs, result):
        return {"trace": args[0].headers.get("X-Trace-Id")}

    @staticmethod
    def _describe_serve_http_upscale_array_ex(args, kwargs, result):
        img = args[1] if len(args) > 1 else kwargs["img"]
        return {"colour": img.ndim == 3}

    @staticmethod
    def _describe_datasets_io_decode_netpbm(args, kwargs, result):
        return {"px": int(result.shape[0] * result.shape[1])}

    @staticmethod
    def _describe_datasets_io_encode_netpbm(args, kwargs, result):
        img = args[0]
        return {"px": int(img.shape[0] * img.shape[1]) // (SCALE * SCALE)}

    @staticmethod
    def _describe_serve_engine_upscale_ex(args, kwargs, result):
        return {"trace": getattr(result, "trace_id", None)}

    def _describe_compile_run(self, args, kwargs, result):
        model, x = args[0], args[1]
        shape = tuple(int(d) for d in x.shape[:3])
        self.models.setdefault(id(model), model)
        self.arenas.add((id(model), threading.get_ident(), shape))
        # The engine runs tiles under the request's span context.
        sp = self._current_span() if self._current_span else None
        return {"shape": shape, "trace": sp.trace_id if sp else None}

    # -------------------------------------------------------------- #
    def summary(self) -> dict:
        """Per-layer metrics, ``name -> (value, samples)``, over the spans
        recorded between start and stop, with per-span-name detail."""
        by_name: Dict[str, List[Span]] = defaultdict(list)
        children: Dict[int, List[Span]] = defaultdict(list)
        for s in self._frozen:
            by_name[s[NAME]].append(s)
            if s[PARENT]:
                children[s[PARENT]].append(s)

        def dur(s: Span) -> float:
            return (s[T1] - s[T0]) * 1e3

        def minus_child(spans: List[Span], child: str) -> List[float]:
            return [dur(s) - sum(dur(c) for c in children[s[SID]] if c[NAME] == child)
                    for s in spans]

        requests = by_name["serve.engine.upscale_ex"]
        runs = by_name["compile.run"]
        gets = [s for s in by_name["serve.scheduler.get"] if s[ATTRS]["jobs"]]
        posts = by_name["serve.http.do_POST"]
        colour = [s for s in by_name["serve.http.upscale_array_ex"]
                  if s[ATTRS] and s[ATTRS].get("colour")]
        runs_by_trace: Dict[str, List[Span]] = defaultdict(list)
        for r in runs:
            if r[ATTRS] and r[ATTRS].get("trace"):
                runs_by_trace[r[ATTRS]["trace"]].append(r)

        overhead = []
        for q in requests:
            trace = q[ATTRS].get("trace") if q[ATTRS] else None
            covered = _union([(max(r[T0], q[T0]), min(r[T1], q[T1]))
                              for r in runs_by_trace.get(trace, ())])
            overhead.append(dur(q) - covered * 1e3)

        waits = [w for s in gets for w in s[ATTRS]["waits"]]
        idle, wall = 0.0, 0.0
        for tid, first in self._first_get.items():
            wall += self.t_stop - first
            idle += self._idle_tail.get(tid, 0.0) + sum(
                s[T1] - s[T0] for s in by_name["serve.scheduler.get"]
                if s[THREAD] == tid
            )

        n_req = len(requests)
        run_ms = sum(dur(r) for r in runs)
        ops = self.ops
        conv_ms = ops.get("conv2d", {}).get("total_ms", 0.0)
        gemm_ms = sum(v["total_ms"] for k, v in ops.items() if k.startswith("gemm."))
        digest_ms, lookup_n = average([dur(s) for s in by_name["serve.cache.array_digest"]])

        m = {  # name -> (value, samples)
            "serve.http.handler_self_ms":
                quantile(minus_child(posts, "serve.http.upscale_array_ex"), 0.5),
            "serve.http.colour_ms":
                average(minus_child(colour, "serve.engine.upscale_ex")),
            "serve.engine.request_ms": quantile([dur(q) for q in requests], 0.5),
            "serve.engine.overhead_ms": quantile(overhead, 0.5),
            "serve.scheduler.queue_wait_p50_ms": quantile(waits, 0.5),
            "serve.scheduler.queue_wait_p95_ms": quantile(waits, 0.95),
            "serve.scheduler.batch_size_mean": average([s[ATTRS]["jobs"] for s in gets]),
            "serve.scheduler.worker_idle_frac":
                (idle / wall if wall else 0.0, len(self._first_get)),
            "serve.cache.lookup_ms": (
                digest_ms + mean([dur(s) for s in by_name["serve.cache.get"]]), lookup_n),
            "compile.run_ms": quantile([dur(r) for r in runs], 0.5),
            "compile.runs_per_request": per_request(len(runs), n_req),
            "compile.gmac_s": (ops.get("conv2d", {}).get("macs", 0) / run_ms / 1e6
                               if run_ms else 0.0, len(runs)),
            "compile.arena_mb": (self._arena_mb(), len(self.arenas)),
            "nn.conv2d_ms": per_request(conv_ms, n_req),
            "nn.im2col_ms": per_request(ops.get("im2col", {}).get("total_ms", 0.0), n_req),
            "kernels.gemm_ms": per_request(gemm_ms, n_req),
            "nn.conv2d_share": (conv_ms / run_ms if run_ms else 0.0, len(runs)),
            "trace.absent_targets": (float(len(self.absent)), len(TARGETS)),
        }
        for op, name in (("decode", "datasets.io.decode_netpbm"),
                         ("encode", "datasets.io.encode_netpbm")):
            calls = by_name[name]
            for size, _ in SIZE_CLASSES:
                m[f"datasets.io.{op}_{size}_ms"] = average(
                    [dur(s) for s in calls if s[ATTRS] and size_class(s[ATTRS]["px"]) == size]
                )
        run_shapes: Dict[str, List[float]] = defaultdict(list)
        for r in runs:
            if r[ATTRS]:
                run_shapes["x".join(map(str, r[ATTRS]["shape"]))].append(dur(r))
        return {
            "metrics": m,
            "requests": n_req,
            "window_s": self.t_stop - self.t_start,
            "absent": list(self.absent),
            "do_post_ms": {s[ATTRS]["trace"]: dur(s) for s in posts
                           if s[ATTRS] and s[ATTRS].get("trace")},
            "run_ms_by_shape": {k: {"count": len(v), "mean_ms": mean(v)}
                                for k, v in sorted(run_shapes.items())},
            "spans": self._span_table(by_name, children),
            "ops": ops,
        }

    def _arena_mb(self) -> float:
        total = 0
        for model_id, _, (n, h, w) in self.arenas:
            model = self.models[model_id]
            try:
                st = model.memory_stats(h, w, n)
            except AttributeError:
                return 0.0
            total += st.get("arena_bytes", 0) + st.get("scratch_bytes", 0)
        return total / 2 ** 20

    @staticmethod
    def _span_table(by_name, children) -> Dict[str, dict]:
        table = {}
        for name, spans in sorted(by_name.items()):
            durs = [(s[T1] - s[T0]) * 1e3 for s in spans]
            selfs = [
                d - _union([(c[T0], c[T1]) for c in children[s[SID]]]) * 1e3
                for s, d in zip(spans, durs)
            ]
            table[name] = {"count": len(spans), "mean_ms": mean(durs),
                           "self_mean_ms": mean(selfs)}
        return table

    # -------------------------------------------------------------- #
    def write_jsonl(self, path: str) -> int:
        """Every recorded span, wrapper spans then the program's own."""
        lines = []
        for s in self._frozen:
            attrs = s[ATTRS] or {}
            lines.append({
                "name": s[NAME], "start_ms": s[T0] * 1e3, "end_ms": s[T1] * 1e3,
                "span_id": s[SID], "parent_id": s[PARENT] or None,
                "trace_id": attrs.get("trace"), "thread": s[THREAD],
                "attrs": attrs, "source": "benchmark",
            })
        for sp in self.program_spans:
            d = sp.to_dict()
            d["source"] = "program"
            lines.append(d)
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(json.dumps(line, default=str) + "\n")
        return len(lines)


def _union(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, in seconds."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total
