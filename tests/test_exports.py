import importlib
import pkgutil

import pytest

import vasosim

MODULES = ["vasosim"] + sorted(
    f"vasosim.{m.name}" for m in pkgutil.iter_modules(vasosim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert len(exported) == len(set(exported))
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in exported if n not in namespace] == []
