"""Count the code lines of Python modules: lines that are not blank, not a
comment and not part of a docstring.

Usage (from the repository root)::

    python3 tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory, whose ``*.py`` files are
counted (not those of its subdirectories); the default is ``src/warpgeo``.
One line per module gives its count, and the last line the total.  A line
is code when a token other than a comment, an indent or a line break
starts, ends or runs through it (every line of a string, blank or not), and
it is not part of a docstring: the string literal that opens a module,
class or function body, as ``ast.get_docstring`` reads it.  Only the
standard library is imported.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path("src/warpgeo")

# The tokens that alone make no line code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and
    its functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> list[int]:
    """The numbers of the code lines of one module's source, from 1."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return sorted(lines - _docstring_lines(ast.parse(source)))


def modules(paths: list[Path]) -> list[Path]:
    """The ``.py`` files named by ``paths``, directories expanded, in order."""
    out: list[Path] = []
    for path in paths:
        out.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[DEFAULT],
                        help="modules or directories of modules (default: src/warpgeo)")
    args = parser.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        n = len(code_lines(path.read_text(encoding="utf-8")))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
