"""Statements of the qfmarket package that a pytest run never executes.

    python tools/linecov.py                      # the whole suite
    python tools/linecov.py -q tests/test_cli.py # any pytest arguments

Runs pytest in this process with src/ first on the path, tracing the lines
executed in src/qfmarket/*.py with sys.settrace and threading.settrace (only
frames of those files get a line tracer). Then it prints `module:line
statement` for each statement of those files that never ran, docstrings
left out, and a count per module with the total, and exits with pytest's
exit code. Subprocesses find the package through PYTHONPATH, but their
lines are not traced.

A statement ran when any of its own lines did: a simple statement's lines,
or a compound statement's header up to its body. Statements that compile to
no code of their own (`global`, `pass`) are not counted.

It needs nothing beyond the standard library and pytest, and it is slow: the
tier-1 suite took 62-83 s under the tracer against 21-26 s without it, about
three times as long (two runs each, 2 vCPUs, Python 3.11).
"""

from __future__ import annotations

import ast
import dis
import os
import sys
import threading
from pathlib import Path

from code_lines import docstring_starts  # tools/, this script's directory, is on the path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfmarket"


def _code_lines(code) -> set:
    """Every line that starts an instruction in code and its nested code."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def statements(source: str, filename: str = "<module>"):
    """[(first line, own lines, text)] for each statement that compiles to
    code, docstrings left out; text is the first line, stripped."""
    compiled = _code_lines(compile(source, filename, "exec"))
    docstrings = docstring_starts(source)
    text = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or (node.lineno, node.col_offset) in docstrings:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            end = max(node.lineno, body[0].lineno - 1)
        else:
            end = node.end_lineno
        own = range(start, end + 1)
        if compiled.isdisjoint(own):
            continue
        out.append((node.lineno, own, text[node.lineno - 1].strip()))
    return sorted(out, key=lambda s: s[0])


def traced(files, run):
    """(run(), {file: executed lines}) with a line tracer on the frames of
    `files` (resolved path strings), in this thread and in threads started
    while run() runs. The tracers found in place are put back afterwards."""
    executed = {f: set() for f in files}
    outer = sys.gettrace(), threading.gettrace()

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in executed else None

    sys.settrace(global_)
    threading.settrace(global_)
    try:
        return run(), executed
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])


def never_ran(files, executed):
    """{file: [(line, text)]}: the statements of each file none of whose own
    lines ran."""
    missed = {}
    for name in files:
        ran = executed[name]
        source = Path(name).read_text(encoding="utf-8")
        missed[name] = [
            (line, text)
            for line, own, text in statements(source, name)
            if ran.isdisjoint(own)
        ]
    return missed


def main(argv=None) -> int:
    import pytest

    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    files = sorted(str(p.resolve()) for p in PACKAGE.glob("*.py"))
    code, executed = traced(files, lambda: pytest.main(list(argv or [])))
    missed = never_ran(files, executed)
    for name, lines in missed.items():
        for line, text in lines:
            print(f"{Path(name).name}:{line} {text}")
    width = max(len(Path(name).name) for name in files)
    for name, lines in missed.items():
        print(f"{Path(name).name:<{width}} {len(lines):>6}")
    print(f"{'total':<{width}} {sum(map(len, missed.values())):>6}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
