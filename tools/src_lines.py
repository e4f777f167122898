"""Physical and code lines per module of a Python package directory.

Code lines are the lines that hold at least one token of a statement: blank
lines, comment-only lines and docstrings (the leading string of a module,
class or function body) do not count.  A multi-line string that is not a
docstring counts on every line it spans.

    python tools/src_lines.py [DIR]

DIR defaults to src/dualalg next to this script's parent directory.  Prints
one row per module, sorted by name, then a total row.
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers taken by the docstrings of tree's module, classes and
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text):
    """(physical lines, code lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv):
    root = pathlib.Path(argv[0]) if argv else (
        pathlib.Path(__file__).resolve().parent.parent / "src" / "dualalg")
    total_phys = total_code = 0
    print(f"{'module':<20} {'physical':>8} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        phys, code = count_lines(path.read_text())
        total_phys += phys
        total_code += code
        print(f"{path.name:<20} {phys:>8} {code:>6}")
    print(f"{'total':<20} {total_phys:>8} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
