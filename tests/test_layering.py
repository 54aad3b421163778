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


def _triangle_concatenations(source, filename):
    """Lines that concatenate ``.triangles`` of two meshes with ``+``."""
    tree = ast.parse(source, filename=filename)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            continue
        operands = (node.left, node.right)
        if any(isinstance(x, ast.Attribute) and x.attr == "triangles" for x in operands):
            yield f"{filename}:{node.lineno} concatenates triangles"


def test_triangle_concatenation_is_detected():
    source = "def f(a, b):\n    return Mesh3(a.payload.triangles + b.payload.triangles)\n"
    assert list(_triangle_concatenations(source, "sample.py")) == [
        "sample.py:2 concatenates triangles"
    ]


def test_bordism_builds_mesh_unions_with_union():
    # Mesh3.union reuses the certificates of its parts; a mesh built from
    # concatenated triangles certifies every pair again
    path = SRC / "bordism.py"
    found = list(_triangle_concatenations(path.read_text(encoding="utf-8"), path.name))
    assert found == []


# the only functions of bordism.py that build a RepresentedClass; every
# point and circle class goes through _record_class, which keeps each
# item's bits with it
_CLASS_CONSTRUCTORS = {
    "class_of_curve",
    "class_of_mesh",
    "empty_class",
    "identity_class",
    "_record_class",
}


def _represented_class_calls(source, filename):
    """Lines that call ``RepresentedClass(`` outside the class constructors."""
    tree = ast.parse(source, filename=filename)
    allowed = {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in _CLASS_CONSTRUCTORS
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "RepresentedClass"
            and id(node) not in allowed
        ):
            yield f"{filename}:{node.lineno} calls RepresentedClass"


def test_represented_class_call_is_detected():
    source = (
        "def _record_class(universe, ambient, records):\n"
        "    return RepresentedClass(universe, ambient, (), ())\n"
        "def add(a, b):\n"
        "    return RepresentedClass(a.universe, a.ambient, (), ())\n"
    )
    assert list(_represented_class_calls(source, "sample.py")) == [
        "sample.py:4 calls RepresentedClass"
    ]


def test_bordism_builds_classes_only_in_its_constructors():
    path = SRC / "bordism.py"
    found = list(_represented_class_calls(path.read_text(encoding="utf-8"), path.name))
    assert found == []
