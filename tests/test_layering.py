"""Module boundaries inside the package.

A name that starts with an underscore is private to the module that
defines it.  Geometry shared between modules lives, public, in
``exactgeom``; no module reaches into another's private names.
"""

import ast
import builtins
import importlib
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


# -- every definition has a reader in the program ------------------------------
#
# A top-level name of the package, or a method of one of its classes, that
# only tests read is dead code with a test around it.  Reads are counted in
# src/, bench/ and scripts/, never in tests/; a name's own body and
# ``__all__`` do not count.  A read of a top-level name counts only where it
# resolves to the module that defines it: a ``Name`` in that module, a
# ``Name`` bound by ``from .m import x`` (or ``from multipoint.m import x``,
# also through a module that imports it in turn), or ``m.x`` with ``m`` that
# module.  A method or property is read only by an ``Attribute`` of its
# name: a local variable of the same name does not read it.
# Dunder names are read by the language and its tools, so they are not
# checked.

ROOT = SRC.parent.parent
PROGRAM_DIRS = ("src", "bench", "scripts")
PACKAGE = "multipoint"

# the paper's operations, kept for callers outside the program
API = {
    "add": "the monoid sum of represented classes",
    "pullback_class": "pullback of an immersion along another, the f* of f*(n_r)",
    "check_naturality": "the naturality law f*(psi_2 g) = psi_2(f* g)",
    "check_cartan": "the Cartan law for psi_r of a disjoint union",
    "check_mu_tower": "the law relating mu_3 to the double points of mu_2",
    "ambient_class_h2": "the surface's class in H_2 of the 3-torus, for the second LHS",
}


def _definitions(source, filename):
    """(line, name) of each top-level definition and class method."""
    tree = ast.parse(source, filename=filename)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item.lineno, f"{node.name}.{item.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield node.lineno, name.id


def _package_module(dotted, level, stems):
    """The package module (a stem; the package is ``__init__``) that an
    import names, or None when it names a module outside the package."""
    if level:
        name = dotted or "__init__"
    elif dotted == PACKAGE:
        name = "__init__"
    else:
        name = dotted.removeprefix(PACKAGE + ".")
    return name if name in stems or name == "__init__" else None


def _bindings(tree, stems):
    """What each imported name of a module binds: ``("module", m)`` or
    ``("name", m, x)`` for a package module m."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = _package_module(alias.name, 0, stems)
                if module is not None:
                    key = alias.asname or alias.name.partition(".")[0]
                    bound[key] = ("module", module if alias.asname else "__init__")
        elif isinstance(node, ast.ImportFrom):
            module = _package_module(node.module or "", node.level, stems)
            if module is None:
                continue
            for alias in node.names:
                key = alias.asname or alias.name
                if module == "__init__" and alias.name in stems:
                    bound[key] = ("module", alias.name)
                else:
                    bound[key] = ("name", module, alias.name)
    return bound


def _reads(source, module, stems):
    """The reads in ``source``, outside ``__all__`` and outside the body of
    a definition of the same name: the names of every ``Attribute``, and
    ``(m, x)`` for each read that resolves to the top-level name x of
    package module m.  ``module`` is the stem of the source's own package
    module, or None outside the package."""
    tree = ast.parse(source)
    bound = _bindings(tree, stems)
    attrs, resolved = set(), set()

    def module_of(node):
        if isinstance(node, ast.Name):
            b = bound.get(node.id)
            return b[1] if b is not None and b[0] == "module" else None
        if isinstance(node, ast.Attribute) and module_of(node.value) == "__init__":
            return node.attr if node.attr in stems else None
        return None

    def visit(node, inside):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                b = bound.get(node.id)
                if b is not None and b[0] == "name":
                    resolved.add(b[1:])
                elif module is not None:
                    resolved.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in inside:
                attrs.add(node.attr)
                owner = module_of(node.value)
                if owner is not None:
                    resolved.add((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return attrs, resolved


def _unread(modules, readers, api):
    """``file:line name`` for each definition in ``modules`` (filename to
    source) that no reader reads and ``api`` does not hold.  ``readers``
    are ``(module, source)`` pairs, ``module`` the stem of a package
    module or None."""
    stems = {Path(filename).stem: source for filename, source in modules.items()}
    attrs, resolved = set(), set()
    for module, source in readers:
        names, pairs = _reads(source, module, stems)
        attrs |= names
        resolved |= pairs
    # a name that a module imports is read where that module's name is
    reexported = {
        (stem, key): b[1:]
        for stem, source in stems.items()
        for key, b in _bindings(ast.parse(source), stems).items()
        if b[0] == "name"
    }
    todo = list(resolved)
    while todo:
        target = reexported.get(todo.pop())
        if target is not None and target not in resolved:
            resolved.add(target)
            todo.append(target)
    for filename, source in modules.items():
        stem = Path(filename).stem
        for line, name in _definitions(source, filename):
            owner, _, short = name.rpartition(".")
            if short.startswith("__") or name in api:
                continue
            if (short in attrs) if owner else ((stem, name) in resolved):
                continue
            yield f"{filename}:{line} {name}"


def _program_sources():
    """``(module, source)`` of every program file; ``module`` is the stem
    of a package module, None elsewhere."""
    return [
        (path.stem if path.parent == SRC else None, path.read_text(encoding="utf-8"))
        for d in PROGRAM_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
    ]


def test_unread_definition_is_detected():
    module = (
        "__all__ = ['used', 'dead']\n"
        "def used():\n"
        "    return 1\n"
        "def dead(n):\n"
        "    return dead(n - 1)\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = used()\n"
        "    def gone(self):\n"
        "        return self.size\n"
        "    @property\n"
        "    def width(self):\n"
        "        return self.size\n"
        "def kept():\n"
        "    return 2\n"
        "def measure(box):\n"
        "    width, gone = box.size, 0\n"
        "    return width + gone\n"
    )
    reader = "from multipoint.sample import Box, measure\nmeasure(Box())\n"
    found = list(_unread({"sample.py": module}, [("sample", module), (None, reader)], {"kept": ""}))
    # local variables named like a method or property do not read it
    assert found == ["sample.py:4 dead", "sample.py:9 Box.gone", "sample.py:12 Box.width"]


def test_top_level_name_read_only_as_an_attribute_is_detected():
    # a method of the same name does not read the top-level function
    module = (
        "def union(a, b):\n"
        "    return a + b\n"
        "class Box:\n"
        "    def union(self, other):\n"
        "        return other\n"
    )
    reader = "from multipoint.sample import Box\nBox().union(Box())\n"
    found = list(_unread({"sample.py": module}, [("sample", module), (None, reader)], {}))
    assert found == ["sample.py:1 union"]
    # each form of a resolved read counts
    for reader in (
        "from multipoint.sample import union\nunion(1, 2)\n",
        "from multipoint.sample import union as u\nu(1, 2)\n",
        "from multipoint import sample\nsample.union(1, 2)\n",
        "import multipoint.sample as s\ns.union(1, 2)\n",
        "import multipoint.sample\nmultipoint.sample.union(1, 2)\n",
        "from multipoint.other import union\nunion(1, 2)\n",
    ):
        other = "from .sample import union\n"
        reader += "from multipoint.sample import Box\nBox().union(Box())\n"
        readers = [("sample", module), ("other", other), (None, reader)]
        found = list(_unread({"sample.py": module, "other.py": other}, readers, {}))
        assert found == [], reader


def test_every_definition_has_a_reader_outside_tests():
    modules = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))
    }
    assert list(_unread(modules, _program_sources(), API)) == []


def test_api_names_are_defined():
    defined = {
        name
        for path in SRC.glob("*.py")
        for _, name in _definitions(path.read_text(encoding="utf-8"), path.name)
    }
    assert set(API) <= defined


# -- every field has a reader in the program -----------------------------------
#
# A field of a class of the package (a dataclass field, or an attribute
# that a method stores on ``self``) that only tests read is dead state with
# a test around it.  A read is an ``Attribute`` load of its name in src/,
# bench/ or scripts/; a load inside an assignment that stores an attribute
# of the same name does not count, so ``mesh.x = a.x + b.x`` does not keep
# ``x`` alive.  An exception's attributes are for its handler, so the
# classes that derive from an exception are not checked.

# fields kept for readers outside the program
FIELDS = {
    "CheckReport.check": "names the law in each report that tests/data/bordism_golden.json pins",
}


def _exception_classes(modules):
    """The names of the classes in ``modules`` that derive from an exception."""
    bases = {
        node.name: {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
        for filename, source in modules.items()
        for node in ast.parse(source, filename=filename).body
        if isinstance(node, ast.ClassDef)
    }
    found = {
        name
        for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    grown = True
    while grown:
        new = {name for name, of in bases.items() if of & found} - found
        found |= new
        grown = bool(new)
    return found & set(bases)


def _fields(source, filename, exceptions):
    """(line, ``Class.field``) of each field of a class that is not one of
    ``exceptions``, at its first definition."""
    for node in ast.parse(source, filename=filename).body:
        if not isinstance(node, ast.ClassDef) or node.name in exceptions:
            continue
        seen = set()
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                stored = [(item.lineno, item.target.id)]
            elif isinstance(item, ast.FunctionDef):
                stored = sorted(
                    (x.lineno, x.attr)
                    for x in ast.walk(item)
                    if isinstance(x, ast.Attribute)
                    and isinstance(x.ctx, ast.Store)
                    and isinstance(x.value, ast.Name)
                    and x.value.id == "self"
                )
            else:
                continue
            for line, name in stored:
                if name not in seen and not name.startswith("__"):
                    seen.add(name)
                    yield line, f"{node.name}.{name}"


def _attribute_reads(source):
    """The names of the ``Attribute`` loads in ``source``, less those inside
    an assignment that stores an attribute of the same name."""
    reads = set()

    def visit(node, storing):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            storing = storing | {
                x.attr
                for target in targets
                for x in ast.walk(target)
                if isinstance(x, ast.Attribute) and isinstance(x.ctx, ast.Store)
            }
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in storing:
                reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, storing)

    visit(ast.parse(source), frozenset())
    return reads


def _unread_fields(modules, readers, allowed):
    """``file:line Class.field`` for each field in ``modules`` (filename to
    source) that no reader source reads and ``allowed`` does not hold."""
    exceptions = _exception_classes(modules)
    reads = set().union(*(_attribute_reads(source) for source in readers))
    for filename, source in modules.items():
        for line, name in _fields(source, filename, exceptions):
            if name.rpartition(".")[2] not in reads and name not in allowed:
                yield f"{filename}:{line} {name}"


def test_unread_field_is_detected():
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Report:\n"
        "    ok: bool\n"
        "    spent: float\n"
        "    kept: int\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self.total = 0\n"
        "        self.size = 1\n"
        "    def add(self, other):\n"
        "        self.total = self.total + other.total\n"
        "        return self.size\n"
        "class Refusal(ValueError):\n"
        "    def __init__(self, where):\n"
        "        self.where = where\n"
        "class NarrowRefusal(Refusal):\n"
        "    def __init__(self):\n"
        "        self.why = 1\n"
    )
    reader = "def f(report):\n    return report.ok\n"
    found = list(_unread_fields({"sample.py": module}, [module, reader], {"Report.kept": ""}))
    # a load inside an assignment that stores the same name does not read it
    assert found == ["sample.py:5 Report.spent", "sample.py:9 Counter.total"]


def test_every_field_has_a_reader_outside_tests():
    modules = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))
    }
    readers = [source for _, source in _program_sources()]
    assert list(_unread_fields(modules, readers, FIELDS)) == []
    fields = {
        name
        for filename, source in modules.items()
        for _, name in _fields(source, filename, _exception_classes(modules))
    }
    assert set(FIELDS) <= fields


def test_every_exported_name_exists():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"multipoint.{path.stem}")
        missing += [
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert missing == []
