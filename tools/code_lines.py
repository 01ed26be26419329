"""Print the code lines of each module of ``src/mzi_qfi``, then their total.

A code line holds at least one token that is not a comment or part of a
docstring, the string that opens a module, class or function body. Blank
lines, comment lines and docstrings are left out; a statement or string that
spans lines counts each of its lines.

    python3 tools/code_lines.py                          # this checkout
    python3 tools/code_lines.py /path/to/other/checkout

The optional argument is the root of the checkout whose ``src/mzi_qfi`` is
counted; by default it is this one.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Tokens that make no line a code line.
LAYOUT = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
})


def _docstring_spans(tree: ast.AST) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """The (start, end) positions of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT:
            continue
        if token.type == tokenize.STRING and any(
                start <= token.start and token.end <= end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(args: Sequence[str]) -> int:
    package = (Path(args[0]) if args else ROOT) / "src" / "mzi_qfi"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>6}")
    print(f"{'total':<16} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
