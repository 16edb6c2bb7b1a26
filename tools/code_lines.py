"""Count code lines: the lines that hold a token other than a comment, a
line break or an indent, minus the docstring lines that `ast` finds.

    python3 tools/code_lines.py [DIR]

prints the count of each module of DIR (default: src/arithdyn) and the
total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "arithdyn"
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(root.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:16}{n:>7,}")
    print(f"{'total':16}{sum(counts.values()):>7,}")


if __name__ == "__main__":
    main(sys.argv[1:])
