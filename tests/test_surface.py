"""Public surface: every exported name resolves, and the demos import only
names the package still has (the demos are parsed, not run)."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cmsense

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = ["cmsense"] + [f"cmsense.{m.name}" for m in pkgutil.iter_modules(cmsense.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _cmsense_imports(path):
    """(module, name) pairs of the ``from cmsense... import name`` statements
    of a source file, and (module, None) for each ``import cmsense...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cmsense":
            yield from ((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "cmsense")


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    pairs = list(_cmsense_imports(path))
    assert pairs, f"{path.name} imports nothing from cmsense"
    missing = []
    for module, name in pairs:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports missing names: {missing}"
