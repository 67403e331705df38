"""Print the size of the library's source, src/circfun/*.py, as one line:

    <lines> total lines, <code> code lines, <n> np.errstate

The code lines are those that hold code, not blank lines, comments or
docstrings: the first and last line of every syntax node but a docstring.
The last count is of lines that open an np.errstate block.  Run it from the
root of the repository: python tools/src_size.py
"""

import ast
import glob


def code_lines(source: str) -> int:
    tree, lines = ast.parse(source), set()
    scopes = [node for node in ast.walk(tree) if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    docs = {id(n) for s in scopes if ast.get_docstring(s, clean=False) is not None for n in (s.body[0], s.body[0].value)}
    lines.update(x for n in ast.walk(tree) if hasattr(n, "lineno") and id(n) not in docs for x in (n.lineno, n.end_lineno))
    return len(lines)


def main() -> None:
    sources = [open(path).read() for path in sorted(glob.glob("src/circfun/*.py"))]
    total = sum(source.count("\n") for source in sources)
    code = sum(map(code_lines, sources))
    errstate = sum(line.count("np.errstate") > 0 for source in sources for line in source.splitlines())
    print(f"{total} total lines, {code} code lines, {errstate} np.errstate")


if __name__ == "__main__":
    main()
