"""Every numerical threshold lives in ``circfun.tolerances``, with its scaling law."""

import ast
from pathlib import Path

import circfun
from circfun import tolerances

PACKAGE = Path(circfun.__file__).parent


def stray_thresholds(path: Path) -> list[str]:
    """``file:line`` of each small float literal and module-level ``*_TOL`` assignment."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}: literal {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-2
    ]
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        found += [
            f"{path.name}:{node.lineno}: assigns {t.id}"
            for t in targets
            if isinstance(t, ast.Name) and t.id.endswith("_TOL")
        ]
    return found


def test_no_threshold_outside_the_table():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py")
    assert len(modules) >= 9
    assert [line for path in modules for line in stray_thresholds(path)] == []


def test_the_guard_sees_a_stray_threshold(tmp_path):
    path = tmp_path / "stray.py"
    path.write_text("NEW_TOL = 0.5\nOLD_TOL: float = 1.0\n\n\ndef f(x, tol=-1e-9):\n    return x\n")
    assert stray_thresholds(path) == [
        "stray.py:5: literal 1e-09", "stray.py:1: assigns NEW_TOL", "stray.py:2: assigns OLD_TOL",
    ]


def test_every_constant_is_in_the_docstring_table():
    names = [name for name in vars(tolerances) if name.isupper()]
    assert names
    rows = {line.split()[0] for line in tolerances.__doc__.splitlines() if line[:1].isupper()}
    assert set(names) <= rows
