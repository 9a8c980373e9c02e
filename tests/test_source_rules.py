import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "backfillsim"


def test_library_has_no_bare_assert():
    # invariants are explicit checks: `python -O` strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
