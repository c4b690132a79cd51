"""Public surface: every exported name resolves, the demos import only
names the package still has, the benchmark calls cmsense only with
names and keywords it still has, and every defaulted keyword of a public
function is set by some call to a value other than its default (demos
and benchmark are parsed, not run)."""
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


# defaulted keywords of public functions that no call sets, and why each
# stays settable all the same
UNSET_ALLOWED = {
    "decoder.build_decoder.w0": "the synthesis gauge, which both synthesis routes take",
    "cascade.fisher_from_trajectories.theta_step":
        "no effect (the θ-derivative is exact); gates 3, 5 and 6 pass it",
    "cascade.mismatch_sweep.theta_step":
        "no effect (the θ-derivative is exact); gate 6 passes it",
    "oracle.brute_env_state.max_step": "reference code: the oracle keeps its full signature",
    "oracle.counting_fisher_exact.dec": "reference code: the oracle keeps its full signature",
    "oracle.counting_fisher_exact.max_step": "reference code: the oracle keeps its full signature",
    "oracle.counting_fisher_exact.theta_step":
        "reference code: the oracle keeps its full signature",
}

_NOT_LITERAL = object()


def _literal(node):
    """The value of a literal expression node, else _NOT_LITERAL."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _NOT_LITERAL


def _call_settings():
    """{called name: [(positional argument count, {keyword: literal value})]}
    over every call ``f(...)`` or ``x.f(...)`` in src/, tests/, demos/ and
    perfbench/, with _NOT_LITERAL for a keyword value that is no literal.
    A ``*args`` call sets every positional parameter; ``**kwargs`` sets none."""
    calls = {}
    for path in sorted(p for d in ("src", "tests", "demos", "perfbench")
                       for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            npos = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                    else len(node.args))
            calls.setdefault(name, []).append(
                (npos, {k.arg: _literal(k.value) for k in node.keywords if k.arg}))
    return calls


def _unset_keywords():
    """``module.function.parameter`` of each defaulted parameter of a function
    in a cmsense module's ``__all__`` that no call sets, by position or by
    keyword to anything but a literal equal to the default (calls are
    matched by the function's name)."""
    calls, unset = _call_settings(), []
    for name in MODULES:
        mod = importlib.import_module(name)
        for fname in getattr(mod, "__all__", ()):
            fn = getattr(mod, fname)
            if not inspect.isfunction(fn) or fn.__module__ != name:
                continue
            for i, p in enumerate(inspect.signature(fn).parameters.values()):
                positional = p.kind is p.POSITIONAL_OR_KEYWORD
                if p.default is not p.empty and not any(
                        (positional and npos > i)
                        or (p.name in kws and not _equal(kws[p.name], p.default))
                        for npos, kws in calls.get(fname, ())):
                    unset.append(f"{name.split('.', 1)[1]}.{fname}.{p.name}")
    return unset


def _equal(value, default):
    return type(value) is type(default) and value == default


def test_every_public_keyword_has_a_caller():
    # a keyword no caller sets, or that every caller sets to its default,
    # is a configuration nothing runs: make it a constant, or give its
    # reason in UNSET_ALLOWED
    unset = set(_unset_keywords())
    extra, stale = sorted(unset - set(UNSET_ALLOWED)), sorted(set(UNSET_ALLOWED) - unset)
    assert not extra, f"{len(extra)} defaulted keywords that no call sets: {extra}"
    assert not stale, f"allowed as unset, but now set or gone: {stale}"


def _callers(name):
    """``module.function`` of each function in src/cmsense that calls
    ``name``: the innermost function around the call (``<module>`` for a
    call at the top level)."""
    callers = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name:
                callers.add(f"{self.module}.{self.scope[-1]}")
            self.generic_visit(node)

    for path in sorted((ROOT / "src" / "cmsense").glob("*.py")):
        Visitor(path.stem).visit(ast.parse(path.read_text(), filename=str(path)))
    return callers


def test_one_function_builds_kraus_tables():
    # every counting model is tabulated by one builder: the sensor alone,
    # the cascade and the θ-derivative of their maps come from one pass
    callers = _callers("_kraus_tables")
    assert len(callers) == 1, f"_kraus_tables has {len(callers)} callers: {sorted(callers)}"


def test_preset_names_live_in_one_table():
    # what a preset runs is declared by its entry of config._PRESETS alone:
    # no other code of the package names a study preset
    names = {n for n in cmsense.config.PRESET_NAMES if n.startswith("fig")}
    found = []
    for path in sorted((ROOT / "src" / "cmsense").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        table = {id(n) for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and "_PRESETS" in [getattr(t, "id", None) for t in node.targets]
                 for n in ast.walk(node)}
        found += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in names
                  and id(node) not in table]
    assert len(names) == 5 and not found, f"preset names outside _PRESETS: {found}"
