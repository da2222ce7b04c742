"""Every name a module exports in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import possum

MODULES = sorted(
    ["possum"]
    + [info.name for info in pkgutil.walk_packages(possum.__path__, "possum.")]
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_exporting_modules_are_walked():
    declared = {n for n in MODULES if hasattr(importlib.import_module(n), "__all__")}
    assert declared >= {
        "possum",
        "possum.calculus",
        "possum.cbr",
        "possum.dsl",
        "possum.engine",
        "possum.knowledge",
        "possum.revision",
    }
