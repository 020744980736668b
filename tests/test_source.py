import ast
from pathlib import Path

import hcgame

SOURCE = Path(hcgame.__file__).parent


def test_no_module_uses_an_assert_statement():
    # python -O strips assert statements, so a check written as one would
    # vanish from optimised runs; every check must raise instead
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
