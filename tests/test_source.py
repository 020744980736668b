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


# calls that retune the cyclic garbage collector for the whole process
GC_TUNING = {"freeze", "disable", "set_threshold"}


def test_only_the_cli_entry_retunes_the_collector():
    # the CLI entry freezes a whole process's start-up heap; imports, library
    # calls and in-process main() keep the interpreter's collector as it was
    found = [
        f"{path.name}:{node.attr if isinstance(node, ast.Attribute) else 'from gc import'}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gc" and node.attr in GC_TUNING)
        or (isinstance(node, ast.ImportFrom) and node.module == "gc")
    ]
    assert found == ["cli.py:freeze"]


def test_the_package_imports_its_modules_and_re_exports_no_name():
    # each public name has one home, its module; the package namespace holds the modules
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    modules = sorted(path.stem for path in SOURCE.glob("*.py") if path.stem not in ("__init__", "cli"))
    assert [(node.module, [alias.name for alias in node.names]) for node in relative] == [(None, modules)]
