"""The reference outputs every response is checked against.

The oracle is ``repro.api.upscale(repro.api.collapse(repro.api.load("M5",
2)), frame, tile=96)``: the eager collapsed network, tiled as the engine
tiles, on the float image a netpbm decoder yields for the frame.  HTTP
responses are compared with its ``encode_netpbm`` bytes, in-process
responses with its float32 bytes; both by sha256 of the whole payload.

It runs after the timed phases, once per distinct frame requested,
split over ``nproc`` worker processes.  Run as a script it is one such
worker: ``oracle.py WORKLOAD SEED '[[cls, frame], ...]'`` prints a JSON
object mapping ``"cls:frame"`` to the expected digest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Dict, Iterable, List, Mapping, Tuple

from loadgen import Sample, digest
from workloads import MODEL, SCALE, TILE, WORKLOADS, as_float, make_pool

Key = Tuple[int, int]


def compute(workload: str, seed: int, keys: Iterable[Key]) -> Dict[str, str]:
    from repro import api
    from repro.datasets import encode_netpbm

    wl = WORKLOADS[workload]
    pool = make_pool(wl, seed)
    model = api.collapse(api.load(MODEL, SCALE))
    out = {}
    for cls, frame in keys:
        sr = api.upscale(model, as_float(pool[cls][frame]), tile=TILE)
        out[f"{cls}:{frame}"] = digest(
            encode_netpbm(sr) if wl.transport == "http" else sr
        )
    return out


def expected_digests(workload: str, seed: int, keys: Iterable[Key],
                     procs: int, env: Mapping[str, str]) -> Dict[Key, str]:
    """Expected digest per ``(cls, frame)``, computed by ``procs`` workers."""
    keys = sorted(set(keys))
    # The workers share the cores, so each gets one BLAS thread; the
    # thread count does not change OpenBLAS sgemm results.
    env = dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    shares = [keys[i::procs] for i in range(procs) if keys[i::procs]]
    children = [
        subprocess.Popen(
            [sys.executable, __file__, workload, str(seed), json.dumps(share)],
            stdout=subprocess.PIPE, env=env,
        )
        for share in shares
    ]
    expected: Dict[Key, str] = {}
    failures = []
    for child in children:
        out, _ = child.communicate()
        if child.returncode != 0:
            failures.append(child.returncode)
            continue
        for key, value in json.loads(out).items():
            cls, frame = key.split(":")
            expected[(int(cls), int(frame))] = value
    if failures:
        raise RuntimeError(f"oracle workers failed with exit codes {failures}")
    return expected


def check(samples: List[Sample], expected: Mapping[Key, str]) -> int:
    """Mark every response that differs from the oracle; returns how many
    responses were compared."""
    checked = 0
    for s in samples:
        if s.error:
            continue
        checked += 1
        if s.digest != expected[(s.cls, s.frame)]:
            s.error = "output differs from the oracle"
    return checked


if __name__ == "__main__":
    name, seed_arg, keys_arg = sys.argv[1:4]
    print(json.dumps(compute(name, int(seed_arg),
                             [tuple(k) for k in json.loads(keys_arg)])))
