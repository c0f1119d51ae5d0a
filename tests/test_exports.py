import importlib
import pkgutil

import pytest

import modwhittle

MODULES = ["modwhittle"] + sorted(f"modwhittle.{m.name}"
                                  for m in pkgutil.iter_modules(modwhittle.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition goes fails here, not at a
    # user's star import
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
