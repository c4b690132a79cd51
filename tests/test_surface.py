"""Public surface: every exported name resolves, the demos import only
names the package still has, and the benchmark calls cmsense only with
names and keywords it still has (demos and benchmark are parsed, not run)."""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import cmsense

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
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


def _resolve(module, name):
    """The object ``from module import name`` binds (the module itself for
    None), or None when it does not exist."""
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return mod if name is None else getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def _cmsense_calls(path):
    """(module, name, attributes, keywords) of each call in a source file to
    a name imported from cmsense, ``f(...)``, or an attribute of one,
    ``mod.f(...)`` or ``Cls.f(...)``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {a.asname or a.name: (node.module, a.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "cmsense" for a in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f, attrs = node.func, []
        while isinstance(f, ast.Attribute):
            f, attrs = f.value, [f.attr] + attrs
        if isinstance(f, ast.Name) and f.id in imported:
            yield (*imported[f.id], attrs, [k.arg for k in node.keywords if k.arg])


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    pairs = list(_cmsense_imports(path))
    assert pairs, f"{path.name} imports nothing from cmsense"
    missing = [f"{m}.{n}" for m, n in pairs if _resolve(m, n) is None]
    assert not missing, f"{path.name} imports missing names: {missing}"


def test_benchmark_bindings_resolve():
    # every cmsense name the benchmark imports exists, and every keyword it
    # passes to one of them is a parameter of that callable
    missing = [f"{p.name}: {m}.{n}" for p in BENCH for m, n in _cmsense_imports(p)
               if _resolve(m, n) is None]
    assert not missing, f"benchmark imports missing names: {missing}"
    calls = [(p.name, *c) for p in BENCH for c in _cmsense_calls(p)]
    assert {"engine", "engine_kind", "seed", "dt"} <= {k for c in calls for k in c[4]}
    unknown = []
    for file, module, name, attrs, keywords in calls:
        fn, call = _resolve(module, name), ".".join([name] + attrs)
        for a in attrs:
            fn = getattr(fn, a, None)
        if not callable(fn):
            unknown.append(f"{file}: {call} is not callable")
            continue
        params = inspect.signature(fn).parameters.values()
        if not any(q.kind is q.VAR_KEYWORD for q in params):
            unknown += [f"{file}: {call}({k}=)" for k in keywords
                        if k not in {q.name for q in params}]
    assert not unknown, f"benchmark calls cmsense with what it does not take: {unknown}"
