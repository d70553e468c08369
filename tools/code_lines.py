"""Count the code lines of each module under ``src/``, and their total.

A code line holds at least one token that is neither a comment nor part of
a docstring; blank lines do not count.  A docstring is the string that opens
a module, class or function body.  Standard library only::

    python tools/code_lines.py              # the src/ beside this script
    python tools/code_lines.py OTHER/src    # another checkout's src/
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of every docstring in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.add((first.lineno, first.col_offset))
    return out


def code_lines(path: Path) -> int:
    docs = docstring_starts(ast.parse(path.read_bytes()))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docs):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit("usage: python tools/code_lines.py [SRC_DIR]")
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    modules = sorted(src.rglob("*.py"))
    if not modules:
        sys.exit(f"no Python modules under {src}")
    total = 0
    for path in modules:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(src)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
