"""BatchScheduler policy tests: windows, fair share, lifecycle.

The scheduler takes an injectable clock, so every window policy here is
tested deterministically — no sleeps, no timing flake.
"""

import threading

import pytest

from repro.serve import BatchScheduler, TileJob


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def job(request="r", group="g"):
    return TileJob(request, "spec", group=group)


# --------------------------------------------------------------------- #
# window zero: no coalescing
# --------------------------------------------------------------------- #
def test_window_zero_dispatches_singletons_in_arrival_order():
    s = BatchScheduler(max_batch=8, window=0.0)
    jobs = [job(request=f"r{i}") for i in range(4)]
    for j in jobs:
        s.put(j)
    got = [s.get()[0] for _ in range(4)]
    assert got == jobs  # strict FIFO, one job per dispatch, no coalescing


def test_window_zero_never_batches_even_under_backlog():
    s = BatchScheduler(max_batch=8, window=0.0)
    for i in range(10):
        s.put(job(request=f"r{i}"))
    assert all(len(s.get()) == 1 for _ in range(10))


# --------------------------------------------------------------------- #
# coalescing
# --------------------------------------------------------------------- #
def test_full_batch_dispatches_before_window_expires():
    clock = FakeClock()
    s = BatchScheduler(max_batch=3, window=10.0, clock=clock)
    for i in range(3):
        s.put(job(request=f"r{i}"))
    batch = s.get(timeout=0)
    assert len(batch) == 3  # full batch: no need to wait out the window


def test_window_expiry_flushes_partial_batch():
    clock = FakeClock()
    s = BatchScheduler(max_batch=8, window=5.0, clock=clock)
    s.put(job(request="a"))
    s.put(job(request="b"))
    assert s.get(timeout=0) is None  # window still open, nothing ready
    clock.now = 5.0
    batch = s.get(timeout=0)
    assert batch is not None and len(batch) == 2


def test_groups_do_not_mix():
    clock = FakeClock()
    s = BatchScheduler(max_batch=8, window=1.0, clock=clock)
    s.put(job(request="a", group="64x64"))
    s.put(job(request="b", group="32x32"))
    clock.now = 1.0
    b1, b2 = s.get(timeout=0), s.get(timeout=0)
    assert len(b1) == 1 and len(b2) == 1
    assert b1[0].group != b2[0].group


def test_oldest_group_dispatches_first():
    clock = FakeClock()
    s = BatchScheduler(max_batch=8, window=2.0, clock=clock)
    s.put(job(request="old", group="A"))
    clock.now = 1.0
    s.put(job(request="new", group="B"))
    clock.now = 3.0  # both windows expired
    assert s.get(timeout=0)[0].group == "A"


def test_fair_share_round_robin_across_requests():
    clock = FakeClock()
    s = BatchScheduler(max_batch=4, window=1.0, clock=clock)
    giant, small = object(), object()
    giant_jobs = [job(request=giant) for _ in range(100)]
    for j in giant_jobs[:50]:
        s.put(j)
    s.put(job(request=small))
    for j in giant_jobs[50:]:
        s.put(j)
    batch = s.get(timeout=0)  # 51+ pending >= max_batch: ready now
    # The small request rides the FIRST batch instead of queueing behind
    # 100 giant tiles, and the giant still fills the rest of the batch.
    owners = [b.request for b in batch]
    assert small in owners
    assert owners.count(giant) == 3


# --------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------- #
def test_close_flushes_open_windows_then_returns_none():
    clock = FakeClock()
    s = BatchScheduler(max_batch=8, window=60.0, clock=clock)
    s.put(job(request="a"))
    s.close()
    assert s.closed
    assert len(s.get()) == 1  # drains without waiting out the window
    assert s.get() is None    # closed and empty
    assert s.get() is None    # stays terminal


def test_drain_removes_everything():
    s = BatchScheduler(max_batch=8, window=60.0)
    jobs = [job(request=f"r{i}") for i in range(3)]
    jobs.append(job(request="e", group="other"))
    for j in jobs:
        s.put(j)
    assert s.depth() == 4
    drained = s.drain()
    assert sorted(map(id, drained)) == sorted(map(id, jobs))
    assert s.depth() == 0


def test_get_timeout_returns_none_when_idle():
    s = BatchScheduler(max_batch=8, window=0.0)
    assert s.get(timeout=0.01) is None
    assert not s.closed


def test_put_wakes_blocked_consumer():
    s = BatchScheduler(max_batch=8, window=0.0)
    out = []
    t = threading.Thread(target=lambda: out.append(s.get()))
    t.start()
    j = job()
    s.put(j)
    t.join(timeout=5.0)
    assert out and out[0] == [j]


def test_constructor_validation():
    with pytest.raises(ValueError):
        BatchScheduler(max_batch=0)
    with pytest.raises(ValueError):
        BatchScheduler(window=-1.0)
