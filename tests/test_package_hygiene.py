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


def _imported_modules(tree):
    """(module, line) for every import outside `from __future__`, a relative
    import resolved to the package module it loads: `from . import x` loads
    module x, or the package itself when x is not a module."""
    pkg = PACKAGE.name
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if node.level == 0:
                out.append((node.module, node.lineno))
            elif node.module:
                out.append((f"{pkg}.{node.module}", node.lineno))
            else:
                for a in node.names:
                    is_module = (PACKAGE / f"{a.name}.py").exists()
                    out.append((f"{pkg}.{a.name}" if is_module else pkg, node.lineno))
    return out


def test_plain_math_modules_do_not_import_numpy():
    # the modules of the array-free README commands import only each other
    # and no numpy, so numpy is outside everything they load, however deep;
    # once the package import is lazy, they start without loading numpy
    plain = {f"{PACKAGE.name}.{m}" for m in ("scalars", "curves", "expurgated")}
    problems = []
    for module in sorted(plain):
        path = PACKAGE / f"{module.rpartition('.')[2]}.py"
        for imported, line in _imported_modules(_tree(path)):
            top = imported.split(".")[0]
            if top == "numpy" or (top == PACKAGE.name and imported not in plain):
                problems.append(f"{path.name}:{line}: imports {imported}")
    assert problems == []
