"""Serving benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/perf/run.py --seed S [--workloads a,b] [--seconds N]
                                   [--trace [0|1]] [--out run.json]

Drives the unchanged program through its public entry points: in-process
``InferenceEngine.upscale`` (``engine_child.py``) and ``POST /v1/upscale``
on a ``repro serve`` child (``serve_child.py``), each started fresh per
run.  Every response is checked against the oracle (``oracle.py``).

Without ``--trace`` a run reports the end-to-end metrics; with it, an
untraced and a traced phase run back to back and the per-layer metrics
(``tracing.py``) are reported, with the tracing overhead between the two.
Each metric is printed with its unit and sample count; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

from loadgen import HttpClient, Sample, drive
from oracle import check, expected_digests
from stats import cpu_ticks, peak_rss_mb, percentile, steal_pct
from tracing import SERVER_METRICS
from workloads import WARMUP_S, WORKLOADS, FrameStream, Workload, make_pool, netpbm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / "_work"

DEFAULT_SECONDS = 15
#: Cold starts per run; ``setup_s`` is their median.
SETUPS = 3
#: Open-loop numbers are invalid when the generator ran later than this.
MAX_LAG_MS = 5.0
#: Removed from every child's environment: these select non-default
#: execution paths in the program.
SCRUBBED_ENV = ("REPRO_WORKER_BACKEND", "REPRO_GEMM_BACKEND", "REPRO_TUNING_CACHE")

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "out_mpix_s": "Mpix/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "small_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "serve.http.wire_ms": "ms",
    "serve.http.wire_p95_ms": "ms",
    **SERVER_METRICS,
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.resident_mb": "MiB",
    "loadgen.lag_p95_ms": "ms",
    "loadgen.conn_wait_p95_ms": "ms",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_throughput_pct": "%",
}


# ---------------------------------------------------------------------- #
# host and checkout
# ---------------------------------------------------------------------- #
def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    env = {k: os.environ[k] for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    blas["threads"] = env or "library default (one per core)"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "seed": seed,
    }


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def require_checkout() -> None:
    """Import the program from this checkout's ``src/`` or nowhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


# ---------------------------------------------------------------------- #
# child processes
# ---------------------------------------------------------------------- #
class Child:
    """A child process whose stdout is read line by line against a deadline."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str]) -> None:
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT)
        self._buf = b""

    def expect(self, pattern: str, timeout: float) -> "re.Match":
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                m = re.search(pattern, line.decode(errors="replace"))
                if m:
                    return m
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"child printed no {pattern!r} in {timeout} s")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(f"child exited ({self.proc.wait()}) "
                                       f"before printing {pattern!r}")
                self._buf += chunk

    def wait(self, timeout: float) -> int:
        try:
            rc = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self.proc.stdout.close()
        return rc

    def stop(self, sig: int = signal.SIGTERM, timeout: float = 30.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        return self.wait(timeout)


def _get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
    finally:
        conn.close()
    if resp.status != 200:
        raise RuntimeError(f"GET {path} answered {resp.status}")
    return json.loads(body)


def start_server(env, workers: int, extra: Sequence[str] = ()):
    """Spawn ``serve_child.py``; returns (child, port, set-up seconds)
    measured from spawn to the first 200 on ``GET /v1/healthz``."""
    child = Child([sys.executable, "-u", str(HERE / "serve_child.py"),
                   "--workers", str(workers), *extra], env)
    try:
        port = int(child.expect(r"http://[0-9.]+:(\d+)", 120).group(1))
        deadline = time.monotonic() + 60
        while True:
            try:
                _get_json(port, "/v1/healthz")
                break
            except (OSError, RuntimeError, http.client.HTTPException):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        return child, port, time.perf_counter() - child.t_spawn
    except BaseException:
        child.stop(signal.SIGKILL)
        raise


# ---------------------------------------------------------------------- #
# one workload
# ---------------------------------------------------------------------- #
class Phase(NamedTuple):
    """One phase's samples, start time and the cache counters at its end."""

    samples: List[Sample]
    start: float
    cache: dict


def run_http(wl: Workload, seed: int, seconds: float, trace: bool,
             workers: int, env, work: Path) -> dict:
    setups = []
    for _ in range(0 if trace else SETUPS - 1):
        child, _, s = start_server(env, workers)
        setups.append(s)
        child.stop(signal.SIGKILL)
    extra = ["--trace-dir", str(work)] if trace else []
    child, port, s = start_server(env, workers, extra)
    setups.append(s)
    phases: Dict[str, Phase] = {}
    try:
        bodies = [[netpbm(f) for f in cls] for cls in make_pool(wl, seed)]
        clients = min(wl.clients, workers)
        client = HttpClient(port, bodies, clients, tag=seed)
        stream = FrameStream(wl, seed)

        def phase(no: int, length: float, timed: bool) -> Phase:
            samples, start = drive(wl, seed, no, length, stream, client.send,
                                   clients, timed)
            return Phase(samples, start, _get_json(port, "/v1/stats")["cache"])

        phases["warmup"] = phase(0, WARMUP_S, False)
        phases["timed"] = phase(1, seconds, True)
        if trace:
            child.proc.send_signal(signal.SIGUSR1)
            child.expect("^trace on$", 30)
            phases["traced"] = phase(2, seconds, True)
            child.proc.send_signal(signal.SIGUSR2)
            child.expect("^trace off$", 30)
        rss = peak_rss_mb(child.proc.pid)
        client.close()
    finally:
        rc = child.stop(signal.SIGTERM)
    if rc != 0:
        raise RuntimeError(f"repro serve exited with {rc}")
    server = json.loads((work / "summary.json").read_text()) if trace else None
    return {"phases": phases, "setups": setups, "peak_rss_mb": rss, "trace": server}


def run_inproc(wl: Workload, seed: int, seconds: float, trace: bool,
               workers: int, env, work: Path) -> dict:
    argv = [sys.executable, str(HERE / "engine_child.py"), "--workload", wl.name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--workers", str(workers), "--trace", str(int(trace))]
    setups = []
    for _ in range(0 if trace else SETUPS - 1):
        child = Child(argv + ["--setup-only"], env)
        child.expect("^ready$", 120)
        setups.append(time.perf_counter() - child.t_spawn)
        child.wait(60)
    child = Child(argv + ["--work", str(work)], env)
    try:
        child.expect("^ready$", 120)
        setups.append(time.perf_counter() - child.t_spawn)
        rc = child.wait(170)
    finally:
        child.stop(signal.SIGKILL)
    if rc != 0:
        raise RuntimeError(f"engine child exited with {rc}")
    data = json.loads((work / "result.json").read_text())
    phases = {
        name: Phase([Sample.from_row(r) for r in ph["samples"]], ph["start"], ph["cache"])
        for name, ph in data["phases"].items()
    }
    return {"phases": phases, "setups": setups, "peak_rss_mb": data["peak_rss_mb"],
            "trace": data.get("trace")}


def phase_metrics(wl: Workload, ph: Phase) -> Dict[str, tuple]:
    """Throughput and latency of one phase as ``name -> (value, samples)``."""
    samples = ph.samples
    ok = [s for s in samples if not s.error]
    window = max(s.done for s in samples) - ph.start
    latency = [s.latency_ms for s in samples]
    small = [s.latency_ms for s in samples if s.cls == wl.smallest]
    return {
        "throughput_rps": (len(ok) / window, len(ok)),
        "out_mpix_s": (sum(wl.classes[s.cls].out_pixels for s in ok) / window / 1e6,
                       len(ok)),
        "latency_p50_ms": (percentile(latency, 0.5), len(latency)),
        "latency_p95_ms": (percentile(latency, 0.95), len(latency)),
        "small_p95_ms": (percentile(small, 0.95), len(small)),
    }


def e2e_metrics(wl: Workload, ph: Phase, setups: Sequence[float],
                rss: float) -> Dict[str, tuple]:
    """End-to-end metrics of the timed phase as ``name -> (value, samples)``."""
    return {"setup_s": (statistics.median(setups), len(setups)),
            **phase_metrics(wl, ph), "peak_rss_mb": (rss, 1)}


def resident_mb(wl: Workload, phases: Sequence[Phase], entries: int) -> float:
    """Output bytes the LRU cache holds: the ``entries`` most recently
    completed distinct frames, each a float32 Y output."""
    seen, total = set(), 0
    ordered = sorted((s for ph in phases for s in ph.samples if not s.error),
                     key=lambda s: s.done, reverse=True)
    for s in ordered:
        if len(seen) >= entries:
            break
        if (s.cls, s.frame) not in seen:
            seen.add((s.cls, s.frame))
            total += wl.classes[s.cls].out_pixels * 4
    return total / 2 ** 20


def layer_metrics(wl: Workload, data: dict) -> Dict[str, tuple]:
    """Per-layer metrics of the traced phase as ``name -> (value, samples)``."""
    timed, traced = data["phases"]["timed"], data["phases"]["traced"]
    server = data["trace"]
    values = {name: tuple(pair) for name, pair in server["metrics"].items()}
    n = len(traced.samples)
    post = server["do_post_ms"]
    wire = [(s.done - s.sent) * 1e3 - post[s.trace_id]
            for s in traced.samples if not s.error and s.trace_id in post]
    values["serve.http.wire_ms"] = (percentile(wire, 0.5, strict=False), len(wire))
    values["serve.http.wire_p95_ms"] = (percentile(wire, 0.95, strict=False), len(wire))
    hits = traced.cache["hits"] - timed.cache["hits"]
    misses = traced.cache["misses"] - timed.cache["misses"]
    values["serve.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                       hits + misses)
    values["serve.cache.resident_mb"] = (resident_mb(
        wl, list(data["phases"].values()), traced.cache["entries"]), traced.cache["entries"])
    # A closed loop has no schedule to fall behind and no connections.
    arrivals = traced.samples if wl.open_loop else []
    values["loadgen.lag_p95_ms"] = (
        percentile([s.lag * 1e3 for s in arrivals], 0.95, strict=False), len(arrivals))
    values["loadgen.conn_wait_p95_ms"] = (
        percentile([s.wait * 1e3 for s in arrivals], 0.95, strict=False), len(arrivals))
    plain, with_trace = phase_metrics(wl, timed), phase_metrics(wl, traced)
    values["trace.overhead_p50_ms"] = (
        with_trace["latency_p50_ms"][0] - plain["latency_p50_ms"][0], n)
    values["trace.overhead_throughput_pct"] = (100.0 * (
        1.0 - with_trace["throughput_rps"][0] / plain["throughput_rps"][0]), n)
    return {name: values[name] for name in PER_LAYER}


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env, workers = child_env(), nproc()
    runner = run_http if wl.transport == "http" else run_inproc
    ticks = cpu_ticks()
    data = runner(wl, seed, seconds, trace, workers, env, work)
    steal = steal_pct(ticks, cpu_ticks())
    phases: Dict[str, Phase] = data["phases"]

    t0 = time.perf_counter()
    keys = {(s.cls, s.frame) for ph in phases.values() for s in ph.samples if not s.error}
    expected = expected_digests(wl.name, seed, keys, workers, env)
    checked = sum(check(ph.samples, expected) for ph in phases.values())
    oracle_s = time.perf_counter() - t0

    final_cache = phases[list(phases)[-1]].cache
    if not wl.expect_hits and final_cache["hits"]:
        raise AssertionError(f"{wl.name}: {final_cache['hits']} cache hits on a "
                             "workload built to miss the cache")
    measured = [phases["timed"]] + ([phases["traced"]] if trace else [])
    attempted = sum(len(ph.samples) for ph in measured)
    failed = sum(1 for ph in measured for s in ph.samples if s.error)
    errors = sorted({s.error for ph in phases.values() for s in ph.samples if s.error})
    result = {
        "workload": wl.name,
        "trace": trace,
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": errors[:10],
        "checked": checked,
        "oracle_frames": len(expected),
        "oracle_s": oracle_s,
        "cache": final_cache,
        "phase_samples": {k: len(v.samples) for k, v in phases.items()},
        "setups_s": data["setups"],
        "host_steal_pct": steal,
    }
    if trace:
        metrics, units = layer_metrics(wl, data), PER_LAYER
        result["trace_detail"] = {k: data["trace"][k] for k in
                                  ("absent", "run_ms_by_shape", "spans", "ops", "window_s")}
        result["trace_files"] = sorted(p.name for p in work.iterdir())
    else:
        metrics, units = e2e_metrics(wl, phases["timed"], data["setups"],
                                     data["peak_rss_mb"]), END_TO_END
    if wl.open_loop:
        lag = percentile([s.lag * 1e3 for s in phases["timed"].samples], 0.95)
        result["valid"] = lag <= MAX_LAG_MS
        result["loadgen_lag_p95_ms"] = lag
    result["metrics"] = {name: {"value": value, "unit": units[name], "n": n}
                         for name, (value, n) in metrics.items()}
    return result


# ---------------------------------------------------------------------- #
# command line
# ---------------------------------------------------------------------- #
def report(result: dict) -> None:
    wl = result["workload"]
    print(f"== {wl} ({'traced' if result['trace'] else 'end to end'}) ==")
    print(f"  requests: attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['error_rate']:.4f}; {result['checked']} responses "
          f"checked against the oracle ({result['oracle_frames']} frames, "
          f"{result['oracle_s']:.1f} s)")
    print(f"  host: {result['host_steal_pct']:.1f}% of CPU time went to other "
          "guests of the hypervisor during the run")
    for err in result["errors"]:
        print(f"  error: {err}")
    if result.get("valid") is False:
        print(f"  warning: load generator p95 lag {result['loadgen_lag_p95_ms']:.2f} ms "
              f"exceeds {MAX_LAG_MS} ms; open-loop numbers are not valid")
    for name, m in result["metrics"].items():
        print(f"  metric {name:<36} {m['value']:>14.6g} {m['unit']:<7} n={m['n']}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, required=True,
                   help="drives every frame, arrival time and request order")
    p.add_argument("--workloads", "--workload", dest="workloads",
                   default=",".join(WORKLOADS),
                   help=f"comma-separated subset of {','.join(WORKLOADS)}")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="length of each timed phase (default %(default)s)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="report per-layer metrics from a traced run")
    p.add_argument("--out", help="write the full run record as JSON here")
    args = p.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown or not args.workloads:
        p.error(f"unknown workloads {unknown}; know {list(WORKLOADS)}")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    run = {"fingerprint": fingerprint(args.seed), "seed": args.seed,
           "seconds": args.seconds, "trace": bool(args.trace), "workloads": {}}
    for name in args.workloads:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        run["workloads"][name] = result
        report(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(run, fh, indent=1, sort_keys=True)
    results = list(run["workloads"].values())
    single = len(results) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if single else f"{r['workload']}.{name}"):
                {"value": m["value"], "unit": m["unit"]}
            for r in results for name, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
