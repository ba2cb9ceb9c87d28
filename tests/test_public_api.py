"""Every exported name resolves.

A deleted definition that a package still lists in ``__all__`` (or in
``repro.runtime``'s lazy name map) would otherwise surface only when a user
imports it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
import repro.runtime

PACKAGES = ["repro"] + sorted(
    f"repro.{module.name}" for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_all_entry_resolves(name):
    package = importlib.import_module(name)
    assert len(package.__all__) == len(set(package.__all__))
    missing = [entry for entry in package.__all__ if not hasattr(package, entry)]
    assert missing == []


def test_every_lazy_runtime_name_resolves_and_is_exported():
    lazy = repro.runtime._LAZY_EXPORTS
    assert [name for name in lazy if not hasattr(repro.runtime, name)] == []
    assert set(lazy) <= set(repro.runtime.__all__)


def test_star_import_of_the_top_level_package():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
