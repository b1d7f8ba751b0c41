"""FaultInjector determinism: same seed, same fault schedule."""

import pytest

from repro.resilience import FaultInjector, InjectedFault

pytestmark = pytest.mark.chaos


def _schedule(inj, n=30):
    """Record which of ``n`` calls fault (F) or pass (.)."""
    out = []
    for _ in range(n):
        try:
            inj.on_tile()
            out.append(".")
        except InjectedFault:
            out.append("F")
    return "".join(out)


def test_fail_first_faults_exactly_n_calls():
    inj = FaultInjector(fail_first=3)
    assert _schedule(inj, 6) == "FFF..."
    assert inj.stats() == {"calls": 6, "faults": 3, "delays": 0}


def test_persistent_faults_every_call():
    inj = FaultInjector(persistent=True)
    assert _schedule(inj, 5) == "FFFFF"


def test_fail_rate_schedule_is_seed_reproducible():
    a = _schedule(FaultInjector(seed=42, fail_rate=0.3), 100)
    b = _schedule(FaultInjector(seed=42, fail_rate=0.3), 100)
    c = _schedule(FaultInjector(seed=43, fail_rate=0.3), 100)
    assert a == b
    assert a != c
    assert "F" in a and "." in a


def test_injected_fault_is_an_ordinary_exception():
    # The engine's batch path catches Exception to fall back to singles.
    assert issubclass(InjectedFault, Exception)


def test_latency_every_sleeps_on_schedule(monkeypatch):
    slept = []
    monkeypatch.setattr("repro.resilience.faults.time.sleep", slept.append)
    inj = FaultInjector(latency=0.5, latency_every=2)
    _schedule(inj, 6)
    assert slept == [0.5, 0.5, 0.5]
    assert inj.stats()["delays"] == 3


def test_invalid_knobs_raise():
    with pytest.raises(ValueError):
        FaultInjector(fail_rate=1.5)
    with pytest.raises(ValueError):
        FaultInjector(fail_first=-1)
