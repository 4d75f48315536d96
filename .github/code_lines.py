"""Count the code lines of the package's modules, src/prfeas/*.py.

A code line holds at least one token that is neither a comment nor
layout, and is not part of a docstring (the string that opens a module,
class or function body).  Run from the repository root:

    python .github/code_lines.py

It prints the total, then each module's count, largest first.
"""

import ast
import io
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


if __name__ == "__main__":
    counts = {f.name: code_lines(f.read_text())
              for f in sorted(Path("src/prfeas").glob("*.py"))}
    print(sum(counts.values()))
    print("per module: " + ", ".join(
        f"{name} {count}" for name, count in
        sorted(counts.items(), key=lambda item: -item[1])))
