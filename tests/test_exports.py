import importlib
import pkgutil

import pytest

import rootbarrier

MODULES = sorted(m.name for m in pkgutil.iter_modules(rootbarrier.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # `from rootbarrier.<module> import *`
    mod = importlib.import_module(f"rootbarrier.{name}")
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from rootbarrier.{name} import *", namespace)
    assert set(exported) <= set(namespace)
