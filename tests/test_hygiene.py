"""Static checks over the package source and the tests: no stale imports,
no stale exports, and every package name the benchmark reaches exists.

Every module-level import must be used in its module or listed in its
``__all__``; every name in ``__all__`` must be defined or imported there.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jacpairs"
MODULES = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported_names(tree):
    """{bound name: line} for the imports at module level."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _used_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


# package modules are named relative to the package, test modules to the root
@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE if PACKAGE in p.parents else ROOT))
)
def test_imports_used_and_exports_defined(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = _imported_names(tree)
    exported = _all_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in _used_names(tree) and name not in exported
    )
    assert not unused, f"unused imports: {unused}"
    undefined = sorted(set(exported) - _defined_names(tree) - set(imported))
    assert not undefined, f"__all__ names neither defined nor imported: {undefined}"


def _load_by_path(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_exist():
    """``bench/tracing.py`` wraps these by name: a renamed one crashes a
    traced benchmark run."""
    tracing = _load_by_path(ROOT / "bench" / "tracing.py")
    missing = []
    for _, modname, attr in tracing.TARGETS:
        owner = importlib.import_module(modname)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # a class method must be the class's own, not one it inherits
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{modname}.{attr}")
    assert not missing, f"trace targets missing from the package: {missing}"


def test_benchmark_selftest_imports_exist():
    tree = ast.parse((ROOT / "bench" / "selftest.py").read_text())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "jacpairs"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"names bench/selftest.py imports are missing: {missing}"


def _imported_modules(path, tree):
    """Dotted names of the modules a package module imports, relative
    imports resolved, ``from pkg import mod`` counted as ``pkg.mod``."""
    package = path.relative_to(PACKAGE.parent).parent.parts
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + (tuple(node.module.split(".")) if node.module else ()))
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_only_the_benchmark_reaches_kernels():
    """The package's one resultant over Z is ``exact.poly.resultant``;
    ``kernels`` holds only names the benchmark calls, so no other package
    module may import it."""
    offenders = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "kernels.py"
        and "jacpairs.kernels" in _imported_modules(path, ast.parse(path.read_text()))
    ]
    assert not offenders, f"modules importing jacpairs.kernels: {offenders}"
