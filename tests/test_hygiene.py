"""Checks over the package source and the tests: no stale imports, no
stale exports, no package module importing another's private names, every
package name the benchmark reaches exists, and importing the package
changes no interpreter-wide state.

Every module-level import must be used in its module or listed in its
``__all__``; every name in ``__all__`` must be defined or imported there.
"""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_no_private_names_imported_across_package_modules():
    """A ``_``-prefixed name is private to the package module that defines
    it; another module that needs it needs a public name."""
    offenders = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not offenders, f"private names imported from other modules: {offenders}"


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
    """``bench/selftest.py`` and ``tools/bench.py`` import these inside
    functions: a removed one breaks them only when they run."""
    for script in (ROOT / "bench" / "selftest.py", ROOT / "tools" / "bench.py"):
        tree = ast.parse(script.read_text())
        imports = [
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "jacpairs"
            for alias in node.names
        ]
        assert imports, script
        missing = [
            f"{module}.{name}"
            for module, name in imports
            if not hasattr(importlib.import_module(module), name)
        ]
        assert not missing, f"names {script.relative_to(ROOT)} imports are missing: {missing}"


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


def test_rings_does_not_import_roots():
    """``roots`` builds on ``rings``; ``rings`` decides irreducibility by its
    own test, so no import in it, at module level or in a function, names
    ``roots``."""
    path = PACKAGE / "exact" / "rings.py"
    offenders = sorted(
        module
        for module in _imported_modules(path, ast.parse(path.read_text()))
        if "roots" in module.split(".")
    )
    assert not offenders, f"exact/rings.py imports {offenders}"


def test_import_keeps_interpreter_state():
    """Importing every package module leaves the recursion limit, the
    int<->str conversion limit and the warning filters as they were; only
    the command-line entry point raises the conversion limit."""
    modules = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        modules.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    code = (
        "import importlib, sys, warnings\n"
        "def state():\n"
        "    return sys.getrecursionlimit(), sys.get_int_max_str_digits(), list(warnings.filters)\n"
        "before = state()\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "assert state() == before, (before, state())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
