"""Every script under demos/ runs to exit 0, plotting block included.

Each demo runs in a fresh interpreter with the library from src/ and a
scratch working directory for the figures it writes.  Where matplotlib
is not installed, a stand-in package on PYTHONPATH takes every plotting
call, so the code that builds each figure runs anyway; its `plot`
refuses curves whose x and y differ in length, as matplotlib does.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STAND_IN = {
    "__init__.py": "def use(backend):\n    pass\n",
    "pyplot.py": '''
class _Any:
    """Takes any attribute or call and gives itself back."""

    def __getattr__(self, name):
        return self

    def __call__(self, *args, **kwargs):
        return self

    def plot(self, x, y, *fmt, **kwargs):
        if len(x) != len(y):
            raise ValueError(f"x and y must have same first dimension, but have shapes {len(x)} and {len(y)}")
        return [self]


def subplots(nrows=1, ncols=1, **kwargs):
    n = nrows * ncols
    return _Any(), (_Any() if n == 1 else tuple(_Any() for _ in range(n)))
''',
}


def test_the_demos_are_found():
    assert DEMOS, "no scripts under demos/"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    paths = [str(ROOT / "src")]
    if importlib.util.find_spec("matplotlib") is None:
        package = tmp_path / "stand_in" / "matplotlib"
        package.mkdir(parents=True)
        for name, source in STAND_IN.items():
            (package / name).write_text(source)
        paths.append(str(package.parent))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    if "savefig" in script.read_text():
        assert "wrote demo" in proc.stdout
