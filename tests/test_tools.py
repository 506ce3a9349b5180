import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment on its own line
import os


def join(a,
         b):
    """Function docstring."""
    return os.path.join(  # a trailing comment
        a,
        b,
    )
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_code_lines_counts_code_only(tmp_path, capsys):
    # import, the two lines of the signature and the four of the call
    tool = _load_tool()
    src = tmp_path / "pkg" / "sample.py"
    src.parent.mkdir()
    src.write_text(SAMPLE)
    assert tool.code_lines(src) == 7
    assert tool.main(["code_lines.py", str(src.parent)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["7", "total"]
