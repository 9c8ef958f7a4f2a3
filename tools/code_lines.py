"""Count code lines: no blank lines, no comments, no docstrings.

    python tools/code_lines.py [PATH ...]

Prints each .py and .c file under the given files and directories
(src/tamsde by default) with its count, then the total.  A Python line
counts when it holds a token other than a comment or a docstring (a
statement that is only a string literal); a line of a token that spans
lines, such as a multi-line string, counts too.  A C line counts when it
holds anything but white space outside /* */ and // comments; the
backslash that ends a line of a macro is white space, so a macro's blank
or comment-only line does not count.
"""

import io
import sys
import tokenize
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
# tokens that never make a line code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def python_lines(text):
    """Code lines of Python source text."""
    lines = set()
    statement = []  # the tokens of the current logical line
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            # a statement that is only a string literal is a docstring
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def c_lines(text):
    """Code lines of C source text."""
    count = 0
    in_comment = False
    for line in text.splitlines():
        line = line.rstrip()
        if line.endswith("\\"):  # a macro's line continues
            line = line[:-1]
        code = False
        quote = None
        i = 0
        while i < len(line):
            two = line[i:i + 2]
            if in_comment:
                if two == "*/":
                    in_comment = False
                    i += 1
            elif quote:
                if line[i] == "\\":
                    i += 1
                elif line[i] == quote:
                    quote = None
            elif two == "/*":
                in_comment = True
                i += 1
            elif two == "//":
                break
            elif not line[i].isspace():
                code = True
                if line[i] in "\"'":
                    quote = line[i]
            i += 1
        count += code
    return count


_COUNTERS = {".py": python_lines, ".c": c_lines}


def _files(paths):
    for path in map(Path, paths):
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*")
                              if p.suffix in _COUNTERS and p.is_file())
        else:
            yield path


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    total = 0
    for path in _files(paths or [_ROOT / "src" / "tamsde"]):
        if path.suffix not in _COUNTERS:
            print(f"code_lines: {path} is not a .py or .c file",
                  file=sys.stderr)
            return 2
        n = _COUNTERS[path.suffix](path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
