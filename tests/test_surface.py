"""The library's public surface has no name that only its own tests call.

A public top-level name of a ``src/kzsketch`` module counts as used when it
appears (as a name, an attribute or an import) in any library module other
than ``__init__.py``, which only re-exports, or in ``bench/``. Every unused
name must be on the allow-list below with the reason it stays; a new
test-only helper fails here until it is either used, moved into the tests or
listed with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED_UNUSED = {
    "save_basis": "the only KZOB writer, which `angles --basis-a/--basis-b` reads",
    "random_grid_dataset": "the README quick start makes its dataset with it",
}


def _public_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


def _references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def unused_public_names() -> set[str]:
    modules = [ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "kzsketch").glob("*.py"))
               if p.name != "__init__.py"]
    users = modules + [ast.parse(p.read_text())
                       for p in sorted((ROOT / "bench").glob("*.py"))]
    defined = set().union(*map(_public_definitions, modules))
    return defined - set().union(*map(_references, users))


def test_unused_public_names_are_the_allow_list():
    unused = unused_public_names()
    assert unused == set(ALLOWED_UNUSED), (
        f"unused and not allowed: {sorted(unused - set(ALLOWED_UNUSED))}; "
        f"allowed but used or gone: {sorted(set(ALLOWED_UNUSED) - unused)}")
