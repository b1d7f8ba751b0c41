"""EngineConfig: validation, normalisation, and config-only construction."""

import dataclasses
import json

import pytest

from repro.serve import EngineConfig, InferenceEngine, ModelKey, ModelRegistry


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry()


KEY = ModelKey("M3", 2)


# --------------------------------------------------------------------- #
# the value object
# --------------------------------------------------------------------- #
def test_defaults_are_valid_and_frozen():
    cfg = EngineConfig()
    assert cfg.workers == 4
    assert cfg.tile == (96, 96)  # int normalised to a pair
    assert cfg.batch_window_ms == 0.0  # coalescing off by default
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.workers = 8


def test_field_names_are_pinned():
    """Every serving knob is a reviewed decision: adding or removing one
    must change this set."""
    assert {f.name for f in dataclasses.fields(EngineConfig)} == {
        "workers", "tile", "max_batch", "batch_window_ms", "cache_size",
        "max_pending", "default_timeout", "breaker_threshold",
        "breaker_cooldown", "degraded_mode",
    }


def test_tile_pair_normalisation():
    assert EngineConfig(tile=(48, 64)).tile == (48, 64)
    assert EngineConfig(tile=[32, 32]).tile == (32, 32)


@pytest.mark.parametrize("bad", [
    {"workers": 0},
    {"tile": 0},
    {"tile": (8, 0)},
    {"tile": (8, 8, 8)},
    {"max_batch": 0},
    {"batch_window_ms": -1.0},
    {"cache_size": -1},
    {"max_pending": 0},
    {"default_timeout": 0.0},
    {"breaker_threshold": 0},
    {"breaker_cooldown": -1.0},
])
def test_validation_rejects(bad):
    with pytest.raises((ValueError, TypeError)):
        EngineConfig(**bad)


def test_replace_revalidates():
    cfg = EngineConfig(workers=2)
    assert cfg.replace(workers=6).workers == 6
    assert cfg.workers == 2  # original untouched
    with pytest.raises(ValueError):
        cfg.replace(workers=-1)


def test_to_dict_is_json_serialisable():
    cfg = EngineConfig(tile=48, breaker_cooldown=2.5)
    d = json.loads(json.dumps(cfg.to_dict()))
    assert d["tile"] == [48, 48]
    assert d["breaker_cooldown"] == 2.5


def test_describe_mentions_every_knob_group():
    text = EngineConfig(batch_window_ms=4.0, degraded_mode=True).describe()
    assert "window 4 ms" in text
    assert "workers" in text and "admission" in text and "resilience" in text


# --------------------------------------------------------------------- #
# engine construction
# --------------------------------------------------------------------- #
def test_engine_accepts_config(registry):
    cfg = EngineConfig(workers=1, tile=32, cache_size=0)
    eng = InferenceEngine(registry, KEY, config=cfg)
    try:
        assert eng.config is cfg
        assert eng.tile == (32, 32)
        stats_cfg = eng.stats()["config"]
        assert stats_cfg["workers"] == 1
        assert stats_cfg["batch_window_ms"] == 0.0
        assert stats_cfg["model"] == "M3"
    finally:
        eng.shutdown()


@pytest.mark.parametrize("legacy", [
    {"workers": 2},
    {"tile": 32},
    {"retry": 3},
    {"compiled": False},
    {"wrokers": 2},  # typos fail identically
])
def test_legacy_kwargs_raise_type_error(registry, legacy):
    """Configuration goes through ``config=`` only: loose knob keywords
    are a plain TypeError, like any unknown keyword argument."""
    with pytest.raises(TypeError):
        InferenceEngine(registry, KEY, **legacy)

