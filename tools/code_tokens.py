"""Count the code tokens of the package and the benchmark scripts.

The measure of "the same behaviour from less code": Python ``tokenize``
tokens of ``src/repro/**/*.py`` plus ``benchmarks/*.py`` (the end-to-end
harness under ``benchmarks/e2e`` is not counted), leaving out comments,
line breaks, indentation, the encoding and end markers, and every module,
class and function docstring.  Denser formatting and shorter comments
therefore do not move the count; deleted or merged code does.

An f-string counts as one token on every Python version (3.12 splits it
into parts), so the count does not depend on the interpreter.

Usage: ``python tools/code_tokens.py [REPO_ROOT]``; prints one line per
package and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0].value
            spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def count_tokens(source: str) -> int:
    """Code tokens of one module's source."""
    spans = docstring_spans(source)
    count = 0
    depth = 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == FSTRING_START:
            depth += 1
            if depth > 1:
                continue
        elif tok.type == FSTRING_END:
            depth -= 1
            continue
        elif depth or tok.type in SKIPPED:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start < b for a, b in spans):
            continue
        count += 1
    return count


def measured_files(root: Path) -> list[tuple[str, Path]]:
    """(group, path) for every counted file: ``src/repro/<package>``,
    ``src/repro/*.py`` for the package's own modules, or ``benchmarks``."""
    package = root / "src" / "repro"
    out = []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).parts
        out.append(("src/repro/*.py" if len(parts) == 1 else f"src/repro/{parts[0]}", path))
    out.extend(("benchmarks", path) for path in sorted((root / "benchmarks").glob("*.py")))
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    groups: dict[str, int] = {}
    for group, path in measured_files(root):
        groups[group] = groups.get(group, 0) + count_tokens(path.read_text(encoding="utf-8"))
    width = max(map(len, groups))
    for group in sorted(groups):
        print(f"{group:<{width}}  {groups[group]:>8,}")
    print(f"{'total':<{width}}  {sum(groups.values()):>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
