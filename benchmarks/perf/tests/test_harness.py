"""Self-tests of the serving benchmark harness.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from loadgen import Sample, classify_response, digest, open_loop  # noqa: E402
from oracle import check  # noqa: E402
from stats import TooFewSamples, percentile  # noqa: E402
from workloads import WORKLOADS, FrameStream, open_schedule  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------- #
# percentile rule
# --------------------------------------------------------------------- #
def test_p95_refused_below_200_samples():
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 0.95)
    assert percentile(list(range(1, 201)), 0.95) == 190


def test_median_needs_20_samples_and_failures_count_as_beyond():
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 19, 0.5)
    values = [1.0] * 180 + [float("inf")] * 20
    assert percentile(values, 0.95) == float("inf")


# --------------------------------------------------------------------- #
# arrival schedules and open-loop timing
# --------------------------------------------------------------------- #
def test_poisson_schedule_is_seeded_and_exact():
    wl = WORKLOADS["api_thumbs"]

    def schedule(seed):
        return open_schedule(wl, seed, 1, 15.0, FrameStream(wl, seed))

    a, b, c = schedule(3), schedule(3), schedule(4)
    assert a == b
    assert a != c
    assert len(a) == len(c) == round(wl.rate * 15.0)
    offsets = [t for t, _, _ in a]
    assert offsets == sorted(offsets) and 0 <= offsets[0] and offsets[-1] < 15.0


def test_mix_is_exact_in_every_block_and_seeded():
    wl = WORKLOADS["api_mixed"]

    def labels(seed):
        stream = FrameStream(wl, seed)
        return [stream.take()[0] for _ in range(100)]

    a = labels(3)
    assert a == labels(3) and a != labels(4)
    for i in range(0, 100, 10):
        assert sorted(a[i:i + 10]) == [0] * 7 + [1] * 2 + [2]


def test_cycled_pools_do_not_repeat_within_a_cache_length():
    wl = WORKLOADS["batch_frames"]
    stream = FrameStream(wl, 1)
    frames = [stream.take()[1] for _ in range(wl.classes[0].pool)]
    assert sorted(frames) == list(range(wl.classes[0].pool)) and len(frames) > 128


def test_phases_give_every_class_enough_requests():
    assert WORKLOADS["api_mixed"].min_requests == 500
    assert WORKLOADS["batch_frames"].min_requests == 220
    thumbs = WORKLOADS["api_thumbs"]
    assert thumbs.phase_seconds(15.0) == 15.0
    assert thumbs.phase_seconds(5.0) * thumbs.rate == 220


def test_open_loop_times_latency_from_the_due_time():
    stall = 0.3
    schedule = [(0.0, 0, 0), (0.05, 0, 1), (0.10, 0, 2)]

    def send(k, cls, frame):
        time.sleep(stall if frame == 0 else 0.001)
        return "", b"x", ""

    samples, start = open_loop(schedule, send, clients=1)
    first, second, third = samples
    assert first.latency_ms >= stall * 1e3
    # The second request was due 50 ms in but could only go out after the
    # stall: its latency carries the wait, not just its own 1 ms.
    assert second.wait >= stall - 0.05 - 0.01
    assert second.latency_ms >= (stall - 0.05) * 1e3
    assert third.due == pytest.approx(start + 0.10)


# --------------------------------------------------------------------- #
# oracle check
# --------------------------------------------------------------------- #
def test_check_flags_a_flipped_byte():
    body = bytes(range(256))
    flipped = bytearray(body)
    flipped[100] ^= 0x01
    good = Sample(0, 7, 0.0, 0.0, 0.01, digest=digest(body))
    bad = Sample(0, 7, 0.0, 0.0, 0.01, digest=digest(bytes(flipped)))
    assert check([good, bad], {(0, 7): digest(body)}) == 2
    assert good.error == ""
    assert bad.error and bad.latency_ms == float("inf")


def test_degraded_and_error_responses_fail():
    assert classify_response(200, "false") == ""
    assert classify_response(200, None) == ""
    assert classify_response(200, "true") == "degraded"
    assert classify_response(503, "false") == "status 503"


def test_array_digest_covers_every_byte():
    a = np.zeros((4, 4), dtype=np.float32)
    b = a.copy()
    b.reshape(-1).view(np.uint8)[5] ^= 0x80
    assert digest(a) != digest(b)
    assert digest(a) == digest(np.asfortranarray(a))


# --------------------------------------------------------------------- #
# metric names against BENCHMARK.json
# --------------------------------------------------------------------- #
def test_declared_metrics_match_the_runner():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    for name in [*e2e, *layer, *WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        x["bound"] for x in SPEC["end_to_end"]) for m in SPEC["end_to_end"])


def _phase(n, cls=0):
    samples = [Sample(cls, i, 1.0 + i * 0.01, 1.0 + i * 0.01, 1.005 + i * 0.01,
                      digest="d") for i in range(n)]
    return run.Phase(samples, 1.0, {"hits": 0, "misses": n, "entries": 128})


def test_every_declared_metric_is_printed(capsys):
    wl = WORKLOADS["api_thumbs"]
    metrics = run.e2e_metrics(wl, _phase(220), [1.0, 1.2, 1.1], 99.0)
    assert set(metrics) == set(run.END_TO_END)
    result = {
        "workload": wl.name, "trace": False, "attempted": 220, "failed": 0,
        "error_rate": 0.0, "errors": [], "checked": 220, "oracle_frames": 220,
        "oracle_s": 0.1, "host_steal_pct": 0.0,
        "metrics": {k: {"value": v, "unit": run.END_TO_END[k], "n": n}
                    for k, (v, n) in metrics.items()},
    }
    run.report(result)
    printed = re.findall(r"metric (\S+) +\S+ (\S+) +n=(\d+)", capsys.readouterr().out)
    assert {name for name, _, _ in printed} == set(run.END_TO_END)
    for name, unit, _ in printed:
        assert NAME.fullmatch(name) and unit == run.END_TO_END[name]


def test_layer_metrics_cover_every_declared_name():
    wl = WORKLOADS["api_thumbs"]
    timed, traced = _phase(220), _phase(220)
    for s in traced.samples:
        s.trace_id = f"{s.frame:016x}"
    server = {"metrics": {k: [1.0, 220] for k in tracing.SERVER_METRICS},
              "do_post_ms": {s.trace_id: 2.0 for s in traced.samples}}
    data = {"phases": {"timed": timed, "traced": traced}, "trace": server}
    values = run.layer_metrics(wl, data)
    assert set(values) == set(run.PER_LAYER)
    assert values["serve.http.wire_ms"][0] == pytest.approx(3.0)


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #
def test_recorder_wraps_every_target_and_restores_them():
    from repro.serve import EngineConfig, InferenceEngine, ModelKey, ModelRegistry
    from repro.serve.engine import InferenceEngine as Engine

    original = Engine.upscale_ex
    engine = InferenceEngine(ModelRegistry(), ModelKey("M5", 2),
                             config=EngineConfig(workers=1))
    rng = np.random.default_rng(0)
    frames = [rng.random((24, 24), dtype=np.float32) for _ in range(10)]
    rec = tracing.Recorder()
    rec.start()
    try:
        for i in range(220):
            engine.upscale(frames[i % 10])
    finally:
        rec.stop()
        engine.shutdown()
    assert Engine.upscale_ex is original
    summary = rec.summary()
    assert summary["absent"] == []
    assert summary["requests"] == 220
    m = {name: value for name, (value, _) in summary["metrics"].items()}
    assert set(m) == set(tracing.SERVER_METRICS)
    assert m["compile.runs_per_request"] == pytest.approx(10 / 220)
    assert m["nn.conv2d_ms"] > 0 and 0 < m["nn.conv2d_share"] <= 1
    assert m["serve.scheduler.queue_wait_p95_ms"] > 0
    assert m["serve.http.handler_self_ms"] == 0.0
    # 10 misses queue 10 jobs; the worker's get already in flight at
    # start() runs unwrapped, so its job's wait may go unrecorded.
    assert summary["metrics"]["serve.scheduler.queue_wait_p95_ms"][1] in (9, 10)


def test_missing_target_is_recorded_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("repro.serve.engine", "InferenceEngine.removed_layer", "gone"),
        ("repro.no_such_module", "f", "gone2"),
    ))
    rec = tracing.Recorder()
    rec.start()
    rec.stop()
    assert rec.absent == ["repro.serve.engine.InferenceEngine.removed_layer",
                          "repro.no_such_module.f"]
    assert rec.summary()["metrics"]["trace.absent_targets"][0] == 2.0


def test_union_counts_overlaps_once():
    assert tracing._union([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4


# --------------------------------------------------------------------- #
# compare.py verdicts
# --------------------------------------------------------------------- #
def test_verdicts():
    a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(a, [v * 1.01 for v in a], "lower", 0.1) == "unchanged"
    assert compare.verdict(a, [v * 1.2 for v in a], "lower", 0.1) == "worse"
    assert compare.verdict(a, [v * 0.8 for v in a], "lower", 0.1) == "better"
    wide = [50, 150, 80, 120, 100, 60, 140]
    assert compare.verdict(wide, a, "lower", 0.1) == "unresolved"
    assert compare.verdict([0.0], [0.002], "lower", None, 0.001) == "worse"


# --------------------------------------------------------------------- #
# the contract for a checkout without the program
# --------------------------------------------------------------------- #
def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "api_thumbs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
