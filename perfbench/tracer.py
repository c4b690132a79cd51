"""Span tracing of cmsense layers from outside the package.

`Tracer.install()` replaces every binding of each layer's public
functions (in every loaded `cmsense` module, so `from .x import f`
bindings are covered too) with a wrapper that records one span per call:
name, start, end, parent span, thread, cell and a few work counts.  Spans
stay in memory; `layer_metrics` folds them into the per-layer metrics
after the traced pass.  Pool threads have no span of their own to hang
from, so a span opened on one with an empty stack is parented to the
innermost open span of the main thread: the `cascade` call that
submitted the chunk and is blocked waiting for it.
"""

import functools
import inspect
import itertools
import sys
import threading
from time import perf_counter

LAYERS = ("propagate", "qfi", "linalg", "decoder", "cascade", "_engine",
          "estimate", "cli", "config")


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        fn = getattr(mod, name, None)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield name, fn


def _grid_key(grid):
    return (grid.t_start, grid.t_end, grid.dt)


def _clicks(indices):
    return sum(len(h) for h in indices)


# span name -> f(bound arguments, result) -> counts; only these calls pay
# for argument binding
_COUNTERS = {
    "propagate.pair_table": lambda a, out: {
        "key": (id(a["model"]), _grid_key(a["grid"]), a["theta"])},
    "propagate.evolve_generalized": lambda a, out: {"steps": a["grid"].n_steps},
    "decoder.build_decoder": lambda a, out: {"steps": a["grid"].n_steps},
    "qfi.env_qfi": lambda a, out: {"evals": len(out.fidelity_samples),
                                   "method": a["method"]},
    "qfi.global_qfi": lambda a, out: {"evals": len(out.fidelity_samples),
                                      "method": a["method"]},
    "cascade.step_matrices": lambda a, out: {
        "key": (id(a["gen"]), _grid_key(a["grid"]), a["theta"])},
    "cascade.sample_records": lambda a, out: {
        "records": a["n_traj"], "bins": a["n_traj"] * a["grid"].n_steps,
        "clicks": _clicks(out[0])},
    "cascade.replay_records": lambda a, out: {
        "records": len(a["indices"]),
        "bins": len(a["indices"]) * a["grid"].n_steps},
    "cascade.fisher_from_trajectories": lambda a, out: {"records": a["n_traj"]},
    "_engine.sample_pure": lambda a, out: {"bins": len(a["indices"]) * a["ops"].n_steps},
    "_engine.sample_density": lambda a, out: {"bins": len(a["indices"]) * a["ops"].n_steps},
    "_engine.replay_pure": lambda a, out: {"bins": a["clicks"].shape[0] * a["ops"].n_steps},
    "_engine.replay_density": lambda a, out: {
        "bins": a["clicks"].shape[0] * a["ops"].n_steps},
    "_engine.sample_segment": lambda a, out: {
        "bins": len(a["indices"]) * a["ops"].n_steps, "clicks": _clicks(out[0])},
    "_engine.replay_segment": lambda a, out: {
        "bins": len(a["click_indices"]) * a["ops"].n_steps,
        "clicks": _clicks(a["click_indices"])},
    "_engine.eig_stepper": lambda a, out: {"fallback": out is None},
}


class Tracer:
    """Records spans while installed; `spans` is reset by `take()`."""

    def __init__(self):
        self.cell = None
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._stacks = {}
        self._patches = []
        self._keep = []  # objects whose id() is a counter key stay alive

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        spans, ids, tracer = self.spans, self._ids, self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and threading.get_ident() != tracer._main else None
            sid = next(ids)
            stack.append(sid)
            counts = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if counter:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments, out)
                    if "key" in counts:
                        tracer._keep.append(bound.arguments)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, threading.get_ident(),
                              tracer.cell, counts))

        return functools.wraps(fn)(traced)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"cmsense.{layer}"]
            for fname, fn in _public_functions(mod):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mname, mod in list(sys.modules.items()):
            if mname != "cmsense" and not mname.startswith("cmsense."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        self._keep.clear()
        return spans


def _self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for s in spans:
        covered, end = 0.0, None
        for a, b in sorted(children.get(s[0], ())):
            if end is None or a > end:
                covered += b - a
                end = b
            elif b > end:
                covered += b - end
                end = b
        out[s[0]] = (s[3] - s[2]) - covered
    return out


# (name, unit) of the per-layer metrics, in report order
PER_LAYER = [
    ("propagate.pair_table.calls", "count"),
    ("propagate.pair_table.self_s", "s"),
    ("propagate.evolve_generalized.calls", "count"),
    ("propagate.evolve_generalized.steps", "count"),
    ("propagate.evolve_generalized.self_s", "s"),
    ("propagate.steps_per_s", "1/s"),
    ("qfi.self_s", "s"),
    ("qfi.fidelity_evals", "count"),
    ("qfi.fd_retries", "count"),
    ("qfi.tables_per_theta", "ratio"),
    ("linalg.calls", "count"),
    ("linalg.self_s", "s"),
    ("decoder.build_decoder.steps", "count"),
    ("decoder.build_decoder.self_s", "s"),
    ("cascade.step_matrices.calls", "count"),
    ("cascade.step_matrices.self_s", "s"),
    ("cascade.tables_per_theta", "ratio"),
    ("cascade.sample_records.records", "count"),
    ("cascade.sample_records.bins", "count"),
    ("cascade.sample_records.clicks", "count"),
    ("cascade.replay_records.records", "count"),
    ("cascade.replay_records.bins", "count"),
    ("cascade.useful_replay_frac", "ratio"),
    ("cascade.self_s", "s"),
    ("cascade.pool_speedup", "ratio"),
    ("engine.sample_pure.self_s", "s"),
    ("engine.sample_pure.bins_per_s", "1/s"),
    ("engine.replay_pure.self_s", "s"),
    ("engine.replay_pure.bins_per_s", "1/s"),
    ("engine.sample_density.self_s", "s"),
    ("engine.sample_density.bins_per_s", "1/s"),
    ("engine.replay_density.self_s", "s"),
    ("engine.replay_density.bins_per_s", "1/s"),
    ("engine.sample_segment.self_s", "s"),
    ("engine.replay_segment.self_s", "s"),
    ("engine.segment.clicks_per_s", "1/s"),
    ("engine.segment_bin_share", "ratio"),
    ("engine.eig_fallbacks", "count"),
    ("estimate.self_s", "s"),
    ("estimate.grid_replays", "count"),
    ("cli.self_s", "s"),
    ("config.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metric values of one traced pass (all but trace.overhead_s)."""
    self_t = _self_times(spans)
    by_id = {s[0]: s for s in spans}

    def named(name):
        return [s for s in spans if s[1] == name]

    def self_sum(group):
        return sum(self_t[s[0]] for s in group)

    def count(group, key):
        return sum(s[7][key] for s in group if s[7])

    def layer(prefix):
        return [s for s in spans if s[1].startswith(prefix + ".")]

    def per_key(group):
        keys = {(s[6],) + s[7]["key"] for s in group if s[7]}
        return _ratio(len(group), len(keys))

    def parent_name(s):
        p = by_id.get(s[4])
        return p[1] if p else None

    m = {}
    pt = named("propagate.pair_table")
    eg = named("propagate.evolve_generalized")
    m["propagate.pair_table.calls"] = len(pt)
    m["propagate.pair_table.self_s"] = self_sum(pt)
    m["propagate.evolve_generalized.calls"] = len(eg)
    m["propagate.evolve_generalized.steps"] = count(eg, "steps")
    m["propagate.evolve_generalized.self_s"] = self_sum(eg)
    m["propagate.steps_per_s"] = _ratio(count(eg, "steps"), self_sum(eg))

    q = named("qfi.env_qfi") + named("qfi.global_qfi")
    evals = count(q, "evals")
    m["qfi.self_s"] = self_sum(layer("qfi"))
    m["qfi.fidelity_evals"] = evals
    # each step trial evaluates F(theta, theta +- d): two samples per trial
    m["qfi.fd_retries"] = sum(s[7]["evals"] // 2 - 1 - (s[7]["method"] == "richardson")
                              for s in q if s[7])
    under_qfi = [s for s in pt if (parent_name(s) or "").startswith("qfi.")]
    m["qfi.tables_per_theta"] = per_key(under_qfi)

    lin = layer("linalg")
    m["linalg.calls"] = len(lin)
    m["linalg.self_s"] = self_sum(lin)
    bd = named("decoder.build_decoder")
    m["decoder.build_decoder.steps"] = count(bd, "steps")
    m["decoder.build_decoder.self_s"] = self_sum(bd)

    sm = named("cascade.step_matrices")
    m["cascade.step_matrices.calls"] = len(sm)
    m["cascade.step_matrices.self_s"] = self_sum(sm)
    m["cascade.tables_per_theta"] = per_key(sm)
    sr = named("cascade.sample_records")
    rr = named("cascade.replay_records")
    m["cascade.sample_records.records"] = count(sr, "records")
    m["cascade.sample_records.bins"] = count(sr, "bins")
    m["cascade.sample_records.clicks"] = count(sr, "clicks")
    m["cascade.replay_records.records"] = count(rr, "records")
    m["cascade.replay_records.bins"] = count(rr, "bins")
    # useful: the +-theta_step replays of a Fisher estimate (the halving
    # diagnostic replays only a subset) and every likelihood-grid replay
    useful = 0
    for s in rr:
        p = by_id.get(s[4])
        if p is None or not s[7]:
            continue
        if p[1].startswith("estimate.") or (
                p[1] == "cascade.fisher_from_trajectories" and p[7]
                and s[7]["records"] == p[7]["records"]):
            useful += s[7]["records"]
    m["cascade.useful_replay_frac"] = _ratio(useful, count(rr, "records"))
    m["cascade.self_s"] = self_sum(layer("cascade"))
    engine_time = sum(s[3] - s[2] for s in spans
                      if s[1].startswith("_engine.") and parent_name(s) in
                      ("cascade.sample_records", "cascade.replay_records"))
    m["cascade.pool_speedup"] = _ratio(engine_time, sum(s[3] - s[2] for s in sr + rr))

    bins_all = 0
    for kind in ("sample_pure", "replay_pure", "sample_density", "replay_density"):
        g = named("_engine." + kind)
        t = self_sum(g)
        m[f"engine.{kind}.self_s"] = t
        m[f"engine.{kind}.bins_per_s"] = _ratio(count(g, "bins"), t)
        bins_all += count(g, "bins")
    seg = named("_engine.sample_segment") + named("_engine.replay_segment")
    m["engine.sample_segment.self_s"] = self_sum(named("_engine.sample_segment"))
    m["engine.replay_segment.self_s"] = self_sum(named("_engine.replay_segment"))
    m["engine.segment.clicks_per_s"] = _ratio(count(seg, "clicks"), self_sum(seg))
    m["engine.segment_bin_share"] = _ratio(count(seg, "bins"), bins_all + count(seg, "bins"))
    m["engine.eig_fallbacks"] = sum(1 for s in named("_engine.eig_stepper")
                                    if s[7] and s[7]["fallback"])

    m["estimate.self_s"] = self_sum(layer("estimate"))
    m["estimate.grid_replays"] = sum(1 for s in rr
                                     if (parent_name(s) or "").startswith("estimate."))
    m["cli.self_s"] = self_sum(layer("cli"))
    m["config.self_s"] = self_sum(layer("config"))
    m["trace.spans"] = len(spans)
    return m
