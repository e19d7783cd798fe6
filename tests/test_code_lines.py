import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = sys.modules["code_lines"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 9 code lines: the numbered ones. Docstrings, comments and blank lines do not
# count; a string that is not a body's first statement does, on every line.
MODULE = '''"""A module docstring
over two lines."""

import os  # 1


class Box:  # 2
    """A class docstring."""

    # a comment line
    size = (  # 3
        1 + 2  # 4
    )  # 5

    def area(self):  # 6
        """A function docstring,

        with a blank line inside."""
        "not a docstring"  # 7
        return """a string
over two lines"""  # 8 and 9
'''


def test_counts_the_lines_that_hold_code():
    assert code_lines.code_lines(MODULE) == 9
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     9  a.py", "     2  b.py", "    11  total"]
