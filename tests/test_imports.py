"""Modules use each other only through public names."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = (node.module or "").split(".")[0]
        if node.level == 0 and package != "costate":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.relative_to(REPO)}:{node.lineno} {alias.name}"


def test_no_private_names_imported_across_modules():
    files = sorted((REPO / "src").rglob("*.py")) + sorted(
        (REPO / "tests").glob("*.py"))
    found = [hit for path in files for hit in _private_imports(path)]
    assert not found, "private names imported: " + ", ".join(found)
