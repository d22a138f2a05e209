"""``tools/code_lines.py`` counts code lines without docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring
on two lines."""

# a comment
import math   # a trailing comment counts as code


class A:
    """Class docstring."""

    x = """a string that is not a docstring
    spans two code lines"""

    def f(self):
        """Function docstring."""
        return math.pi
'''


def test_code_lines_of_a_fixed_snippet():
    # code: import, class, x (2 lines), def, return
    assert code_lines.count_lines(SNIPPET) == (16, 6)


def test_code_lines_prints_each_module_and_the_total(capsys):
    assert code_lines.main([str(_PATH)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["code_lines.py", "total"]
    assert out[0].split()[1:] == out[1].split()[1:]
