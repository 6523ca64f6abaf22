"""Print the total lines and the code lines of the fairpc sources.

Code lines exclude blank lines, comments and docstrings (module, class and
function docstrings). These are the net source LOC figures that the
BENCH_<n>.json files record.

    python scripts/source_loc.py [SOURCE_DIR]

SOURCE_DIR defaults to this checkout's ``src/fairpc``. One line per module,
then the sum: total lines and code lines.
"""

import ast
import io
import pathlib
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> None:
    root = pathlib.Path(argv[0]) if argv else (
        pathlib.Path(__file__).resolve().parent.parent / "src" / "fairpc")
    total = code = 0
    for path in sorted(root.glob("*.py")):
        lines, code_lines = count(path.read_text(encoding="utf-8"))
        total += lines
        code += code_lines
        print(f"{path.name:<20} {lines:>6} {code_lines:>6}")
    print(f"{'all':<20} {total:>6} {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
