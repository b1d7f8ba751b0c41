"""Calibration regression tests: the frozen spec must keep matching Table 3."""

import json
import subprocess
import sys

import pytest

from repro.hw import ETHOS_N78_4TOPS, anchor_rows, fit_spec, residuals


class TestFrozenSpec:
    def test_all_anchor_residuals_bounded(self):
        """Frozen constants keep every Table 3 observable within ±105%."""
        for name, (r_ms, r_mb) in residuals(ETHOS_N78_4TOPS).items():
            assert abs(r_ms) < 0.55, f"{name}: runtime residual {r_ms:+.2f}"
            assert abs(r_mb) < 1.05, f"{name}: dram residual {r_mb:+.2f}"

    def test_full_frame_anchors_tight(self):
        """The two primary (non-tiled ×2) anchors are within ±35%."""
        res = residuals(ETHOS_N78_4TOPS)
        for key in ("FSRCNN (x2) 1080p->4K", "SESR-M5 (x2) 1080p->4K"):
            r_ms, r_mb = res[key]
            assert abs(r_ms) < 0.35
            assert abs(r_mb) < 0.45

    def test_anchor_macs_sanity(self):
        """Published MAC counts are architecture arithmetic — match exactly."""
        for anchor, _ in anchor_rows():
            assert anchor.macs_g > 0


class TestRefit:
    def test_refit_reproduces_frozen_constants(self):
        """Re-running the least-squares fit lands on the frozen values."""
        fitted = fit_spec()
        assert fitted.dram_bandwidth == pytest.approx(
            ETHOS_N78_4TOPS.dram_bandwidth, rel=0.05
        )
        assert fitted.compression_ratio == pytest.approx(
            ETHOS_N78_4TOPS.compression_ratio, rel=0.05
        )

    def test_fit_is_deterministic(self):
        a, b = fit_spec(), fit_spec()
        assert a.dram_bandwidth == b.dram_bandwidth
        assert a.compression_ratio == b.compression_ratio


def test_importing_the_serving_stack_loads_no_scipy():
    """scipy.optimize costs ~0.5 s of every server and worker start; only
    :func:`fit_spec` needs it, so only calling it may import it."""
    code = ("import json, sys; import repro.serve, repro.api, repro.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert json.loads(out) == []
