import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rootbarrier

SRC = Path(__file__).resolve().parents[1] / "src"
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


def test_library_imports_neither_scipy_stats_nor_integrate():
    # a fresh interpreter: the test modules import both subpackages themselves
    probe = ("import sys, rootbarrier, rootbarrier.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
