import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mirrorquintic"


def test_invariants_raise_package_exceptions():
    # an assert vanishes under python -O, and AssertionError is not a
    # MirrorQuinticError: invariants raise errors.InvariantViolated
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
