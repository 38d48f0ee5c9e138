"""Static checks on the package source: exports are defined, imports are used."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "typewriter_bounds"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    """(bound name, line) for every import outside `from __future__`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name.split(".")[0]), node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _top_level_names(tree):
    names = {name for name, _ in _imported_names(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_exports_are_defined_and_imports_are_used():
    problems = []
    for path in MODULES:
        tree = _tree(path)
        exports = _exports(tree)
        defined = _top_level_names(tree)
        problems += [f"{path.name}: __all__ entry {n} is not defined" for n in exports if n not in defined]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exports)
        problems += [
            f"{path.name}:{line}: unused import {name}"
            for name, line in _imported_names(tree)
            if name not in used
        ]
    assert problems == []


def test_plain_math_modules_do_not_import_numpy():
    # the modules of the array-free README commands stay numpy-free, so a
    # lazy package import can start them without loading numpy
    problems = []
    for name in ("scalars.py", "curves.py", "expurgated.py"):
        tree = _tree(PACKAGE / name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            problems += [f"{name}:{node.lineno}: imports {m}" for m in modules if m.split(".")[0] == "numpy"]
    assert problems == []
