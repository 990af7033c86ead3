"""Checks on the package source itself."""

import ast
from pathlib import Path

import cytforge

PACKAGE = Path(cytforge.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no verdict check may live in one
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _modules() -> dict[str, ast.Module]:
    """Every module of the package, parsed."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


# public definitions that no package code reads, each with why it stays
UNREFERENCED_ALLOWED = {
    "catalog.load_catalog": "the library reader of a catalog file, which CI and the benchmark call",
    "cone.negative_curves": "the curve list the benchmark's set-up probe times cold",
    **{
        f"reproduce.compute_{section}": "looked up by name in reproduce.compute"
        for section in ("4_1", "4_2", "4_3", "4_4", "5", "6_1", "maxroot")
    },
}


def _public_definitions(tree: ast.Module):
    """(dotted name, node) for each public function and class of a module
    and each public method or property of its classes."""
    for definition in tree.body:
        if isinstance(definition, (ast.FunctionDef, ast.ClassDef)) and not definition.name.startswith("_"):
            yield definition.name, definition
            for member in definition.body if isinstance(definition, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{definition.name}.{member.name}", member


def test_every_public_definition_is_read_in_the_package():
    # a name counts as read when a Name or an attribute of that name occurs
    # anywhere in the package outside the definition itself; a method or
    # property is read by an attribute of its own name, of any owner
    modules = _modules()
    reads: dict[str, set[int]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None:
                reads.setdefault(name, set()).add(id(node))
    unread = [
        f"{stem}.{dotted}"
        for stem, tree in modules.items()
        for dotted, definition in _public_definitions(tree)
        if reads.get(definition.name, set()) <= {id(node) for node in ast.walk(definition)}
    ]
    assert sorted(set(unread) - set(UNREFERENCED_ALLOWED)) == []
    assert sorted(set(UNREFERENCED_ALLOWED) - set(unread)) == []  # no stale entry


# imports that no package code reads, each with why it stays
UNUSED_IMPORTS_ALLOWED = {
    "search.solve_scale": "the benchmark's tracer test asserts that it patches this binding",
}


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for stem, tree in _modules().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bound = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        unused += [f"{stem}.{name}" for name in bound if name not in read]
    assert sorted(set(unused) - set(UNUSED_IMPORTS_ALLOWED)) == []
    assert sorted(set(UNUSED_IMPORTS_ALLOWED) - set(unused)) == []  # no stale entry
