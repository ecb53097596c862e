"""The package surface: each name has one import path."""

import importlib
import pkgutil
import types

import pytest

import qpv


def test_a_submodule_import_gives_the_module():
    import qpv.teleport as m

    assert isinstance(m, types.ModuleType)
    assert m.__name__ == "qpv.teleport"


def test_no_package_attribute_shadows_a_submodule():
    for info in pkgutil.walk_packages(qpv.__path__, "qpv."):
        module = importlib.import_module(info.name)
        parent, _, leaf = info.name.rpartition(".")
        assert getattr(importlib.import_module(parent), leaf) is module


@pytest.mark.parametrize("package", ["qpv", "qpv.attacks"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert all(namespace[name] is getattr(module, name) for name in module.__all__)
