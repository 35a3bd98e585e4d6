"""Every ``repro`` module imports, and every ``__all__`` entry resolves.

A stale ``__all__`` entry only fails under ``from repro.x import *``,
which nothing else in the suite runs, so a deletion that misses an
export list would otherwise ship.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    ["repro"]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
