"""tools/code_lines.py: code lines without blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 6 code lines: the import, the def, the two lines of the call it returns,
# and the two lines of the multi-line string bound to TEXT
PYTHON = '''"""Module docstring,
over two lines."""

import math  # a comment


def f(x):
    """Docstring."""
    # a comment line
    return math.fsum([x,

                      x])
"a bare string statement"
TEXT = """two
lines"""
'''

# 5 code lines: the #include, the signature, the return, the brace and the
# string, whose comment marker does not start a comment
C = r'''/* header comment
   over two lines */
#include <math.h>

// line comment
double f(double x) { /* trailing */
    return x; /* one */ /* two */
}   // closing
const char *s = "/* not a comment */";
'''

# 3 code lines: the #define and the two lines of the sum; the macro's blank
# line and its two comment lines, each ended by the backslash that
# continues the macro, are not code
MACRO = r'''#define TWICE(x)  \
                   \
    /* a comment, \
       over two lines */ \
    ((x) +         \
     (x))
'''


def test_python_sample():
    assert code_lines.python_lines(PYTHON) == 6


def test_c_sample():
    assert code_lines.c_lines(C) == 5


def test_c_macro_continuations_are_white_space():
    assert code_lines.c_lines(MACRO) == 3


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(PYTHON)
    (tmp_path / "b.c").write_text(C)
    (tmp_path / "notes.txt").write_text("not counted\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["6", str(tmp_path / "a.py")], ["5", str(tmp_path / "b.c")],
        ["11", "total"]]


def test_other_files_are_refused(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("not code\n")
    assert code_lines.main([str(tmp_path / "notes.txt")]) == 2
    assert "not a .py or .c file" in capsys.readouterr().err
