"""Line counts of the modules of src/sinegap, standard library only.

    python3 tools/src_lines.py

prints a Markdown table with one row per module and a total: its lines,
and its code lines, those that are not blank, not a comment and not
part of a module, class or function docstring (found with `ast`).  A
line of any other multi-line string that is blank or starts with '#'
is counted as not code; src/sinegap has no such line.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sinegap"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one module."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text, str(path)))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)
    return len(lines), code


def main() -> None:
    rows = [(path.name, *counts(path)) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print("| module | lines | code lines |")
    print("|---|---:|---:|")
    for name, lines, code in rows:
        print(f"| {name} | {lines:,} | {code:,} |")


if __name__ == "__main__":
    main()
