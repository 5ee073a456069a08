"""The code-line counter of ``tools/code_lines.py`` on a small fixture."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# A comment line.


class Shape:
    """Class docstring."""

    sides = 3

    def area(self):
        """Function docstring,

        over three lines."""
        # Another comment.
        return math.sqrt(3.0) / 4.0

    async def later(self):
        """One line."""
        "A string that opens no body is code."
        return None


def plain():
    return """a string

# that is code"""
'''


def test_fixture_code_lines():
    # Blank, comment and docstring lines are left out; a line with a
    # trailing comment, a later string statement and every line of a string
    # are code.
    assert code_lines.code_lines(FIXTURE) == [4, 9, 12, 14, 19, 21, 23, 24, 27, 28, 29, 30]


def test_counts_per_module_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\n\nx = 1\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"    12  {tmp_path / 'a.py'}\n     1  {tmp_path / 'b.py'}\n    13  total\n")
