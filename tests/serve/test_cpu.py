"""BLAS pool sizing: bookkeeping, output bits, and concurrent engines."""

import sys
import threading

import numpy as np
import pytest

from repro.deploy import tiled_upscale
from repro.serve import EngineConfig, InferenceEngine, ModelKey, ModelRegistry
from repro.serve import cpu
from repro.serve.cpu import BlasPool
from repro.train import predict_image

KEY = ModelKey(name="M3", scale=2)


class FakeBlas:
    """Stands in for the library: remembers the last size it was given."""

    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry()


@pytest.fixture
def fake_pool(monkeypatch):
    """Engines built in the test register on a 2-core pool over a fake."""
    lib = FakeBlas(7)
    pool = BlasPool(lib, cores=2)
    monkeypatch.setattr(cpu, "POOL", pool)
    return pool, lib


# --------------------------------------------------------------------- #
# bookkeeping
# --------------------------------------------------------------------- #
def test_two_workers_on_two_cores_get_one_thread_each():
    lib = FakeBlas(2)
    pool = BlasPool(lib, cores=2)
    pool.register(2)
    assert lib.threads == 1 and pool.threads() == 1


def test_live_engines_sum_their_workers_and_the_last_restores():
    lib = FakeBlas(8)
    pool = BlasPool(lib, cores=8)
    pool.register(2)
    assert lib.threads == 4
    pool.register(2)
    assert lib.threads == 2
    pool.register(12)
    assert lib.threads == 1  # more workers than cores: never below one
    pool.unregister(12)
    pool.unregister(2)
    assert lib.threads == 4
    pool.unregister(2)
    assert lib.threads == 8 and pool.live_workers == 0


def test_no_supported_blas_is_left_alone():
    pool = BlasPool(lib=None, cores=2)
    pool.register(2)
    pool.set_threads(1)
    assert pool.threads() is None
    pool.unregister(2)


def test_engines_register_until_shutdown(registry, fake_pool):
    pool, lib = fake_pool
    cfg = EngineConfig(workers=2, tile=16, cache_size=0)
    first = InferenceEngine(registry, KEY, config=cfg)
    second = InferenceEngine(registry, KEY, config=cfg.replace(workers=1))
    try:
        assert pool.live_workers == 3
        stats = first.stats()["config"]
        assert stats["cores"] == 2 and stats["blas_threads"] == 1
        first.shutdown()
        assert pool.live_workers == 1 and lib.threads == 2
    finally:
        first.shutdown()
        second.shutdown()
    assert pool.live_workers == 0 and lib.threads == 7


def test_a_constructor_that_raises_registers_nothing(fake_pool):
    pool, lib = fake_pool

    class UnpicklableModel:
        def __reduce__(self):
            raise TypeError("not picklable")

    class Registry:
        def get(self, key):
            return UnpicklableModel()

    cfg = EngineConfig(workers=2, halo=0, compiled=False,
                       worker_backend="process")
    with pytest.raises(ValueError, match="picklable"):
        InferenceEngine(Registry(), KEY, config=cfg)
    assert pool.live_workers == 0 and lib.threads == 7


# --------------------------------------------------------------------- #
# the real library
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def openblas():
    lib = cpu.find_openblas()
    if lib is None:
        pytest.skip("no OpenBLAS with a thread-count setter is loaded")
    return lib


@pytest.fixture(scope="module")
def compiled_m5():
    return ModelRegistry().get_compiled(ModelKey(name="M5", scale=2))


@pytest.mark.parametrize("shape", [(105, 114), (57, 73), (32, 32)])
def test_pool_size_does_not_change_output_bits(openblas, compiled_m5, shape):
    tile = np.random.default_rng(shape[0]).random(shape).astype(np.float32)
    original = openblas.get()
    outs = []
    try:
        for threads in (1, 2):
            openblas.set(threads)
            assert openblas.get() == threads
            outs.append(predict_image(compiled_m5, tile).tobytes())
    finally:
        openblas.set(original)
    assert outs[0] == outs[1]


def test_engines_churning_under_load_stay_bit_exact(registry, openblas,
                                                    monkeypatch):
    # 8 "cores" on the real library: two live 2-worker engines size the
    # pool to 2 threads, and every build of a third drops it to 1 while
    # their GEMMs run.  Six workers plus two callers outnumber the cores
    # of most hosts.
    pool = BlasPool(openblas, cores=8)
    monkeypatch.setattr(cpu, "POOL", pool)
    rng = np.random.default_rng(0)
    frames = [rng.random((48, 40)).astype(np.float32) for _ in range(4)]
    refs = [tiled_upscale(registry.get(KEY), f, 2, tile=(32, 32))
            for f in frames]
    cfg = EngineConfig(workers=2, tile=32, cache_size=0)
    original = openblas.get()
    stop = threading.Event()
    mismatches, errors = [], []

    def serve(engine):
        try:
            while not stop.is_set():
                for frame, ref in zip(frames, refs):
                    if not np.array_equal(engine.upscale(frame), ref):
                        mismatches.append(engine)
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    engines = [InferenceEngine(registry, KEY, config=cfg) for _ in range(2)]
    callers = [threading.Thread(target=serve, args=(e,)) for e in engines]
    try:
        for t in callers:
            t.start()
        for _ in range(6):
            assert openblas.get() == 2
            third = InferenceEngine(registry, KEY, config=cfg)
            assert openblas.get() == 1
            assert np.array_equal(third.upscale(frames[0]), refs[0])
            third.shutdown()
    finally:
        stop.set()
        for t in callers:
            t.join(timeout=60)
        sys.setswitchinterval(interval)
        for e in engines:
            e.shutdown()
    assert not any(t.is_alive() for t in callers)
    assert not errors and not mismatches
    assert all(e.telemetry.counter("engine.requests_ok").value > 0
               for e in engines)
    assert pool.live_workers == 0 and openblas.get() == original
