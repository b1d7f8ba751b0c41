"""API-surface meta-tests: public items are documented and importable."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.nn",
    "repro.core",
    "repro.datasets",
    "repro.metrics",
    "repro.train",
    "repro.deploy",
    "repro.hw",
    "repro.theory",
    "repro.nas",
    "repro.resilience",
    "repro.serve",
    "repro.zoo",
    "repro.cli",
    "repro.utils",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, name


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_documented(name):
    """Every public class/function reachable from __all__ has a docstring."""
    module = importlib.import_module(name)
    undocumented = []
    for attr in getattr(module, "__all__", []):
        obj = getattr(module, attr, None)
        if obj is None or not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if not (obj.__doc__ or "").strip():
            undocumented.append(attr)
    assert not undocumented, f"{name}: undocumented public items {undocumented}"


def test_public_methods_of_key_classes_documented():
    from repro.core import SESR, CollapsibleLinearBlock, FSRCNN
    from repro.hw import NPUSpec
    from repro.nn import Module, Tensor

    for cls in (Tensor, Module, CollapsibleLinearBlock, SESR, FSRCNN, NPUSpec):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name}"


def test_version_exposed():
    import repro

    assert repro.__version__
