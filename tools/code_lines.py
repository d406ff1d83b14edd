"""Count the lines of Python source that hold code.

    python3 tools/code_lines.py PATH [PATH ...]

A PATH is a .py file or a directory, whose .py files are counted
recursively. The tool prints each file's count and path, then the total.
A line holds code when a token other than a comment starts on it or spans
it: a string over several lines counts each of them. Docstrings, the first
string statement of a module, class or function body as `ast` finds them,
do not count, nor do comments and blank lines. Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code: layout, comments and the stream's ends
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) (row, column) span of every docstring in tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    spans = docstring_spans(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or any(lo <= tok.start < hi for lo, hi in spans):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def python_files(paths) -> list[Path]:
    """The .py files the given files and directories name, in path order."""
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("paths", nargs="+", help=".py files or directories")
    args = p.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
