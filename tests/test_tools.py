"""tools/: the code-line count that the change log cites, and the output
digests that compare two trees."""

import importlib.util
import random
from pathlib import Path

from qfmarket.proptest import random_market

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
digests = _load("digests")

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


def test_market_digests_repeat_and_tell_families_apart():
    def family(count):
        rng = random.Random(0)
        return [random_market(rng) for _ in range(count)]

    first = digests.market_digests(family(3))
    assert list(first) == list(digests.OUTPUTS)
    assert all(len(value) == 64 for value in first.values())
    assert digests.market_digests(family(3)) == first
    assert digests.market_digests(family(2))["solve"] != first["solve"]
