"""Every top-level function, class and assigned name (a constant, a
compiled pattern, a table) in src/kbcat, and every public method, is read
somewhere in src/kbcat: by a name, an attribute or an import. Code that
only tests use is deleted rather than kept; a name that stays without a
reader is on ALLOWED with the reason it stays."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kbcat"

ALLOWED = {
    "parse_query": "reads the query language README documents, for queries "
                   "written by hand",
    "serialize_query": "writes a query in that language; the acceptance test "
                       "pins the E2 query's text with it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(trees: dict[str, ast.Module]) -> dict[str, str]:
    """name -> where it is defined, for every top-level function, class and
    assigned name and every public method."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                            found[name.id] = f"{module}:{name.id}"
            if not isinstance(node, _DEFS):
                continue
            found[node.name] = f"{module}:{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("_"):
                        found[item.name] = f"{module}:{node.name}.{item.name}"
    return found


def _references(trees: dict[str, ast.Module]) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            # an assignment's own target is no reader
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _unreferenced() -> dict[str, str]:
    trees = _trees()
    references = _references(trees)
    return {name: where for name, where in _definitions(trees).items()
            if name not in references}


def test_every_definition_has_a_caller_in_src():
    unreferenced = _unreferenced()
    orphans = sorted(where for name, where in unreferenced.items() if name not in ALLOWED)
    assert not orphans, f"only tests (or nothing) use these; delete them: {orphans}"
    # an entry whose name gained a caller, or was deleted, leaves ALLOWED
    assert sorted(unreferenced) == sorted(ALLOWED)
