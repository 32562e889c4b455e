import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# code lines: import, class, the two non-blank lines of the string assigned
# to x, def f, the two lines of f's return, def g and pass
SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string that is not a docstring,

    with a blank line inside"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)


def g():
    pass
'''


def test_code_lines_counts_a_literal_source(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# a comment\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout == f"9 {tmp_path / 'a.py'}\n1 {tmp_path / 'b.py'}\n10 total\n"
