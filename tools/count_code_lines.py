#!/usr/bin/env python3
"""Count the code lines of Python files: lines that hold a token other
than a comment, outside module, class and function docstrings.

Blank lines, comment-only lines and docstring lines do not count; a
string that spans several lines counts on each of them unless it is a
docstring. Prints one line per file and the total.

    python tools/count_code_lines.py src/iceemd
    python tools/count_code_lines.py src/iceemd/cli.py src/iceemd/io.py
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(path: Path) -> int:
    with tokenize.open(path) as fh:
        source = fh.read()
    docstrings = _docstring_lines(ast.parse(source, filename=str(path)))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    files = []
    for arg in map(Path, argv):
        files.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    total = 0
    for path in files:
        n = count_code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
