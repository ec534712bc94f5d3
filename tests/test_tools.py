"""tools/: the code-line count that the change log cites."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# A comment line.
import math  # a trailing comment keeps its line


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring."""
        text = """a multi-line string
that is not a docstring"""
        return math.pi, text


def bare():
    "A one-line docstring in plain quotes."
    return (
        1
    )
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import, class, def area, text = (2 lines), return, def bare, return ( 1 ) (3 lines)
    assert code_lines.code_lines(SAMPLE) == 10


def test_code_lines_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "1"], ["b.py", "2"], ["total", "3"]]
