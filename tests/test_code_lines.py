"""`tools/code_lines.py`, the code-line count of the library: the lines
that hold a token other than a comment, a line break or an indent, minus
the docstring lines that `ast` finds.  The script is loaded from its path."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
on two lines."""

import os  # a trailing comment

# a comment line
class A:
    """A class docstring."""

    def f(self, a,
          b):
        """A method docstring
        on two lines."""
        return (a +
                b)


TEXT = """a string that
is no docstring"""
'''


def test_the_rule_on_a_small_source():
    # import; class; def over two lines; return over two lines; the string
    # assignment over two lines
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_the_report_per_module_and_in_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\ny = [\n    2,\n]\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split("\n") == [
        "a.py" + " " * 12 + "      8",
        "b.py" + " " * 12 + "      4",
        "total" + " " * 11 + "     12",
        "",
    ]
