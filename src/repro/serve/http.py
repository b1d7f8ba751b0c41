"""Stdlib-only HTTP front-end over the inference engine.

Endpoints (v1 — the documented API)
-----------------------------------
``POST /v1/upscale``
    Body: a binary/ASCII PGM or PPM image.  Response: the upscaled image in
    binary PGM (grey input) or PPM (colour input).  Colour inputs follow
    the paper's protocol through the function ``repro.cli upscale`` calls
    (:func:`repro.deploy.upscale_colour`) — the engine super-resolves the Y
    channel, chroma is bicubic-upscaled — so the response bytes are
    bit-identical to the CLI's output file.
``GET /v1/healthz``
    Liveness + model identity (JSON).
``GET /v1/stats``
    Full :meth:`repro.serve.InferenceEngine.stats` snapshot (JSON):
    request counters, latency percentiles, queue depth, cache and
    cross-request batching accounting.
``GET /v1/metrics``
    The same registry in Prometheus text format (version 0.0.4), plus
    live tracing-span aggregates — what a metrics scraper points at
    (see ``docs/observability.md``).

The unversioned paths (``/upscale``, ``/healthz``, ``/stats``,
``/metrics``) serve no content: they answer **308 Permanent Redirect**
with a ``Location: /v1/...`` header and an empty body.  308 — not 301/302 —
because it forbids the method rewrite: a redirected ``POST /upscale``
must be retried as ``POST /v1/upscale`` with the same body.  A redirect
response to a POST closes the connection, since the unread request body
would corrupt a keep-alive stream.  New clients should speak ``/v1``;
the prefix is what lets the wire format evolve again without breaking
them.

Errors
------
Every non-2xx response is JSON with one stable shape::

    {"error": {"code": "<machine-readable>", "message": "<human>",
               "trace_id": "<16 hex>"}}

``code`` is one of ``bad_request``, ``not_found``, ``payload_too_large``,
``unsupported_media_type``, ``unavailable``, ``deadline_exceeded``,
``internal``.  ``trace_id`` identifies the failure in the process tracer
(a well-formed client ``X-Trace-Id`` is adopted, otherwise one is
generated) and is also echoed as the ``X-Trace-Id`` response header.

Request validation is header-first: the ``Content-Type`` of ``POST
/v1/upscale`` is checked *before* the body is read (netpbm payloads —
``image/*``, ``application/octet-stream``, or clients that send no/default
types), as is the ``Content-Length`` bound — an unsupported or oversized
upload is rejected with 415/413 without its body ever entering memory.

Every ``POST /v1/upscale`` response carries an ``X-Trace-Id`` header
naming the request's span tree (request → tile fan-out → stitch) in the
process tracer; a client-supplied well-formed ``X-Trace-Id`` (16 hex
chars) is adopted instead of generating one, so the id round-trips.

Built on :class:`http.server.ThreadingHTTPServer`: one thread per
connection does the (cheap) parse/encode work and blocks on the engine,
whose bounded slot pool is the real admission control.  Failure mapping:
bad image → 400, oversized body → 413, wrong media type → 415, engine
overloaded/closed → 503, deadline missed → 504, worker error → 500.
When the engine's degraded mode answers with the bicubic fallback the
response carries ``X-Degraded: true`` (it is ``false`` on healthy
responses) so callers and load balancers can tell fallback pixels from
model pixels.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

import numpy as np

from ..datasets import decode_netpbm, encode_netpbm
from ..deploy.pipeline import upscale_colour
from ..obs import get_tracer, render_prometheus
from ..obs import profiler as _profiler
from ..obs.trace import new_trace_id
from .engine import (
    EngineClosed,
    EngineOverloaded,
    InferenceEngine,
    RequestTimeout,
    UpscaleResult,
)

MAX_BODY_BYTES = 64 * 1024 * 1024  # 8K RGB16 fits with headroom

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

API_VERSION = "v1"

#: media types accepted for POST /v1/upscale.  Netpbm has no single
#: registered type and simple clients (curl --data-binary, urllib) send
#: form/plain/none defaults, so the gate is an allow-list, not one type.
_ACCEPTED_MEDIA_PREFIXES = ("image/",)
_ACCEPTED_MEDIA_TYPES = frozenset({
    "",  # no Content-Type header at all
    "application/octet-stream",
    "application/x-www-form-urlencoded",  # urllib/curl POST default
    "text/plain",
})

_TRACE_ID_RE = re.compile(r"[0-9a-f]{16}$")

_ROUTES = ("/upscale", "/healthz", "/stats", "/metrics")


def upscale_array_ex(engine: InferenceEngine, img: np.ndarray,
                     timeout: Optional[float] = None,
                     trace_id: Optional[str] = None) -> UpscaleResult:
    """Upscale a decoded image with the paper's colour protocol.

    :func:`repro.deploy.upscale_colour` — the function ``repro upscale``
    and ``repro.api.upscale`` use — sends grey images and the Y channel of
    colour ones through the engine and bicubic-upscales chroma.  The
    result carries the engine's metadata (a colour result is degraded or
    cached whenever its Y channel was).  ``trace_id`` propagates to the
    engine's request span (see
    :meth:`~repro.serve.InferenceEngine.upscale_ex`).
    """
    y_results = []

    def run_y(y: np.ndarray) -> np.ndarray:
        res = engine.upscale_ex(y, timeout=timeout, trace_id=trace_id)
        y_results.append(res)
        return res.image

    image = upscale_colour(img, engine.scale, run_y)
    y_res = y_results[0]
    # Grey: the engine's own result.  Colour: its metadata, RGB pixels.
    return y_res if image is y_res.image else replace(y_res, image=image)


class SRRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the server's engine; speaks netpbm and JSON."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle on, the body waits
    # for the client's delayed ACK of the headers (~40 ms on keep-alive).
    disable_nagle_algorithm = True

    @property
    def engine(self) -> InferenceEngine:
        return self.server.engine  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _route(self) -> Tuple[Optional[str], Optional[str]]:
        """Resolve ``self.path`` to ``(route, redirect_location)``.

        Exactly one of the pair is set: a versioned path yields its
        canonical route; a legacy unversioned path yields the ``/v1``
        location to 308-redirect to; an unknown path yields neither
        (404).
        """
        path = self.path.split("?", 1)[0]
        prefix = f"/{API_VERSION}"
        if path.startswith(prefix + "/"):
            route = path[len(prefix):]
            return (route, None) if route in _ROUTES else (None, None)
        if path in _ROUTES:
            return None, prefix + path
        return None, None

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        route, redirect = self._route()
        if redirect is not None:
            self._send_redirect(redirect)
        elif route == "/healthz":
            key = self.engine.key
            self._send_json(200, {
                "status": "ok" if not self.engine.closed else "shutting-down",
                "model": key.name,
                "scale": key.scale,
                "precision": key.precision,
                "api_version": API_VERSION,
            })
        elif route == "/stats":
            self._send_json(200, self.engine.stats())
        elif route == "/metrics":
            text = render_prometheus(
                self.engine.stats(),
                tracer=get_tracer(),
                profiler=_profiler.ACTIVE,
            )
            self._send_bytes(
                200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE,
            )
        else:
            self._send_error(
                404, "not_found", f"unknown path {self.path!r}"
            )

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        route, redirect = self._route()
        if redirect is not None:
            # The request body is never read: close the connection so the
            # unread bytes cannot corrupt a keep-alive stream.  308 keeps
            # the method and body on the retry against /v1.
            self.close_connection = True
            self._send_redirect(redirect)
            return
        if route != "/upscale":
            self._send_error(
                404, "not_found", f"unknown path {self.path!r}"
            )
            return
        # Header-first validation: media type and size are judged before
        # a single body byte is read, so a bad upload costs no memory.
        # Responses that leave the body unread close the connection — the
        # unread bytes would corrupt a keep-alive stream.
        ctype = self.headers.get("Content-Type", "")
        ctype = ctype.split(";", 1)[0].strip().lower()
        if (ctype not in _ACCEPTED_MEDIA_TYPES
                and not ctype.startswith(_ACCEPTED_MEDIA_PREFIXES)):
            self.close_connection = True
            self._send_error(
                415, "unsupported_media_type",
                f"unsupported Content-Type {ctype!r}; send a netpbm image "
                "as image/* or application/octet-stream",
            )
            return
        max_bytes = getattr(self.server, "max_body_bytes", MAX_BODY_BYTES)
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length > max_bytes:
            self.close_connection = True
            self._send_error(
                413, "payload_too_large",
                f"body of {length} bytes exceeds the {max_bytes}-byte limit",
            )
            return
        if length <= 0:
            self._send_error(
                400, "bad_request", "missing or invalid body",
            )
            return
        body = self.rfile.read(length)
        try:
            img = decode_netpbm(body)
        except ValueError as exc:
            self._send_error(
                400, "bad_request", f"bad netpbm payload: {exc}",
            )
            return
        try:
            result = upscale_array_ex(
                self.engine, img, trace_id=self._client_trace_id()
            )
        except (EngineOverloaded, EngineClosed) as exc:
            self._send_error(503, "unavailable", str(exc))
            return
        except RequestTimeout as exc:
            self._send_error(504, "deadline_exceeded", str(exc))
            return
        except Exception as exc:  # noqa: BLE001 — reported as HTTP 500
            self._send_error(500, "internal", f"inference failed: {exc}")
            return
        payload = encode_netpbm(result.image)
        headers = {
            "X-Degraded": "true" if result.degraded else "false",
            "X-Trace-Id": result.trace_id,
        }
        self._send_bytes(
            200, payload, "application/octet-stream", extra_headers=headers
        )

    # ------------------------------------------------------------------ #
    def _client_trace_id(self) -> Optional[str]:
        """A well-formed client ``X-Trace-Id`` (adopted so one trace spans
        client and server), else ``None``."""
        trace_id = self.headers.get("X-Trace-Id", "").strip().lower()
        return trace_id if _TRACE_ID_RE.fullmatch(trace_id) else None

    def _send_redirect(self, location: str) -> None:
        """308 Permanent Redirect to the versioned route; empty body."""
        self.send_response(308)
        self.send_header("Location", location)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _send_bytes(self, code: int, payload: bytes, ctype: str,
                    extra_headers: Optional[dict] = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, code: int, obj: dict,
                   extra_headers: Optional[dict] = None) -> None:
        self._send_bytes(
            code, json.dumps(obj, indent=2).encode() + b"\n",
            "application/json", extra_headers=extra_headers,
        )

    def _send_error(self, code: int, error_code: str, message: str,
                    extra_headers: Optional[dict] = None) -> None:
        """The one error shape every non-2xx response uses."""
        trace_id = self._client_trace_id() or new_trace_id()
        headers = dict(extra_headers or {})
        headers["X-Trace-Id"] = trace_id
        self._send_json(code, {
            "error": {
                "code": error_code,
                "message": message,
                "trace_id": trace_id,
            },
        }, extra_headers=headers)

    def log_message(self, fmt: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)


class SRServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`InferenceEngine`."""

    daemon_threads = True

    def __init__(
        self,
        engine: InferenceEngine,
        address: Tuple[str, int] = ("127.0.0.1", 8000),
        verbose: bool = False,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        super().__init__(address, SRRequestHandler)
        self.engine = engine
        self.verbose = verbose
        self.max_body_bytes = max_body_bytes
        self._serving = False

    def serve_forever(self, *args, **kwargs) -> None:
        self._serving = True
        try:
            super().serve_forever(*args, **kwargs)
        finally:
            self._serving = False

    def close(self) -> None:
        """Stop the listener and drain the engine (graceful shutdown)."""
        if self._serving:
            self.shutdown()  # unblocks serve_forever (wherever it runs)
        self.server_close()
        self.engine.shutdown()


def make_server(
    engine: InferenceEngine,
    host: str = "127.0.0.1",
    port: int = 8000,
    verbose: bool = False,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> SRServer:
    """Bind an :class:`SRServer`; ``port=0`` picks an ephemeral port."""
    return SRServer(engine, (host, port), verbose=verbose,
                    max_body_bytes=max_body_bytes)
