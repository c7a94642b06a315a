"""Count code lines of Python files: lines that hold code, leaving out blank
lines, comment-only lines and docstrings.

A docstring is the string statement that opens a module, class or function
body.  A line counts when any token other than a comment or a line break
touches it, outside every docstring.  Stdlib only.

    python tools/codelines.py src/exrank            # one row per file, then the total
    python tools/codelines.py a.py b.py some/dir    # files, and .py files under dirs
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of the Python file at ``path``."""
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def python_files(paths):
    """``paths`` in order, each directory replaced by its .py files, sorted."""
    for path in map(Path, paths):
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    total = 0
    for path in python_files(argv):
        n = code_lines(path)
        total += n
        print(f"{n}\t{path.as_posix()}")
    print(f"{total}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
