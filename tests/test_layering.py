"""Module boundaries inside the package.

A name that starts with an underscore is private to the module that
defines it.  Geometry shared between modules lives, public, in
``exactgeom``; no module reaches into another's private names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multipoint"


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("multipoint"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_package_sources_are_found():
    assert (SRC / "exactgeom.py").is_file()


def test_no_module_imports_a_private_name_of_another():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _private_imports(path)]
    assert found == []
