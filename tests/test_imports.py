"""Source hygiene: every module of the package reads each name it imports."""

import ast
from pathlib import Path

import robustmech

SOURCE = Path(robustmech.__file__).parent


def test_every_imported_name_is_read():
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_export_is_used_outside_the_tests():
    """Each name the package exports is read, as a name or an attribute,
    by another module of the package, a demo or the benchmark harness: an
    export only the tests call is a test-only helper."""
    root = SOURCE.parent.parent
    init = ast.parse((SOURCE / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    paths = [p for p in SOURCE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(root / "demos").glob("*.py"), *(root / "bench").glob("*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(exported - used) == []
