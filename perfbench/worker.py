"""One workload process: set up, run the cells in a closed loop, check.

Started by run.py as `python3 perfbench/worker.py SPEC.json` with the BLAS
thread pools pinned to one thread.  Protocol on stdout, one JSON object a
line: {"ready": true} once cmsense is imported and every cell config is
loaded and validated (run.py times set-up up to that line), then the
result object.  With "setup_only" in the spec the second line is
{"calib_s": ...}, the calibration loop's time right after set-up.
Pass times are scaled by CALIB_REF_S / (calibration before the pass).

`python3 perfbench/worker.py --write-references` recomputes
references.json from the current library (QFI values are deterministic).
"""

import contextlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

# I_E/I_G are compared with the committed references to this relative
# tolerance: fidelities carry ~1e-12 of round-off and the QFI step is
# chosen so that 1 - F >= 1e-6, so a reordered sum moves I_E by <~ 1e-6
QFI_RTOL = 1e-6
# _calibrate() on an uncontended core of a 2.1 GHz Xeon (2 vCPUs):
# scaled times read as seconds at that speed
CALIB_REF_S = 0.27
# step- and segment-engine replays of the same records differ by round-off
# only: |dlogL| <= ENGINE_TOL * max(1, |logL|)
ENGINE_TOL = 1e-8
N_ENGINE_RECORDS = 32


def _import_cmsense():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cmsense
    if Path(cmsense.__file__).resolve().parent != src / "cmsense":
        raise ImportError(f"cmsense imported from {cmsense.__file__}, not {src}")


def _emit(stream, obj):
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def _ref_ie(refs, cell, t):
    return refs[cell][repr(float(t))]


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    def run(self, name, fn):
        """Record fn()'s (ok, detail); an exception is a failed check."""
        try:
            ok, detail = fn()
        except Exception:  # a check that cannot run has failed
            ok, detail = False, traceback.format_exc(limit=3)
        self.add(name, ok, detail)


def _fi_bound(rows, col, ie_of, err_col):
    bad = []
    for r in rows:
        f, err, ie = r[col], r[err_col], ie_of(r)
        if not (math.isfinite(f) and f >= 0.0 and f <= ie + 5.0 * err):
            bad.append(f"{col}={f!r} err={err!r} I_E={ie!r}")
    return not bad, "; ".join(bad) or f"{len(rows)} rows within [0, I_E + 5 err]"


def _check_cell(checks, name, cfg, table, rows, refs):
    """Physics checks on one cell's CSV rows."""
    if table in ("qfi_scan", "heisenberg"):
        def reference():
            bad = []
            for r in rows:
                ref = _ref_ie(refs, name, r["T"])
                for col in ("I_E", "I_G"):
                    if not abs(r[col] - ref[col]) <= QFI_RTOL * abs(ref[col]):
                        bad.append(f"T={r['T']} {col}={r[col]!r} ref={ref[col]!r}")
            return not bad, "; ".join(bad) or f"rtol {QFI_RTOL}"
        checks.run(f"reference/{name}", reference)
        checks.run(f"ig_ge_ie/{name}", lambda: (
            all(r["I_G"] >= r["I_E"] for r in rows),
            "; ".join(f"T={r['T']} I_E={r['I_E']:.6g} I_G={r['I_G']:.6g}" for r in rows)))
        if rows and "F_decoder" in rows[0]:
            checks.run(f"fi_bound/{name}", lambda: _fi_bound(
                rows, "F_decoder", lambda r: r["I_E"], "F_decoder_err"))
            checks.run(f"fi_bound_direct/{name}", lambda: _fi_bound(
                rows, "F_direct", lambda r: r["I_E"], "F_direct_err"))
    elif table in ("mismatch", "imperfections"):
        t_end = cfg["grid"]["t_list"][0]
        checks.run(f"fi_bound/{name}", lambda: _fi_bound(
            rows, "fisher", lambda r: _ref_ie(refs, name, t_end)["I_E"], "fisher_err"))
    elif table == "mle":
        checks.run(f"fi_bound/{name}", lambda: _fi_bound(
            rows, "fisher", lambda r: _ref_ie(refs, name, r["T"])["I_E"], "fisher_err"))

        def mle_rows():
            theta = cfg["model"]["theta"]
            bad = [f"T={r['T']}: mean_estimate={r['mean_estimate']!r} "
                   f"width={r['grid_width']!r} n_boundary={r['n_boundary']!r}"
                   for r in rows
                   if not (math.isfinite(r["mean_estimate"])
                           and abs(r["mean_estimate"] - theta) <= r["grid_width"]
                           and 0 <= r["n_boundary"] <= r["K"])]
            return not bad, "; ".join(bad) or f"{len(rows)} rows inside the grid"
        checks.run(f"mle_rows/{name}", mle_rows)


def _engine_agreement(cfg, seed):
    """Replay one fixed record set with the step and the segment engine."""
    from cmsense.cascade import cascade_generators, replay_records, sample_records
    from cmsense.config import ExperimentConfig, build_sensor
    from cmsense.decoder import two_level_decoder
    from cmsense.propagate import TimeGrid
    ec = ExperimentConfig.from_dict(cfg)
    m = ec.model
    theta = float(m["theta"])
    gen = cascade_generators(build_sensor(ec), two_level_decoder(m["omega"], -theta, m["gamma"]))
    grid = TimeGrid(0.0, float(ec.grid["t_list"][0]), float(ec.grid["dt"]))
    idx, _, _ = sample_records(gen, theta, grid, N_ENGINE_RECORDS, seed=seed, engine="step")
    step = replay_records(gen, theta + 0.1, idx, grid, engine_kind="step")
    seg = replay_records(gen, theta + 0.1, idx, grid, engine_kind="segment")
    dev = max(abs(a - b) / max(1.0, abs(a)) for a, b in zip(step, seg))
    clicks = sum(len(h) for h in idx)
    return dev <= ENGINE_TOL, f"max rel |dlogL| = {dev:.3g} over {len(idx)} records, {clicks} clicks"


def _env_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "worker_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "MALLOC_ARENA_MAX")},
    }


def _calibrate():
    """Seconds this core now takes for a fixed small-matrix loop.

    The loop has the shape of the library's hot loops (a 4x4 complex
    product and a renormalisation per step, in Python).  On a shared
    machine whose sibling hardware thread is busy it runs up to ~1.8x
    slower, in phases of seconds to minutes.  Scaling by
    CALIB_REF_S / _calibrate() cut the spread of `mle` wall_s over ten
    seeds from 0.36 to 0.05 of the median on such a machine.
    """
    import numpy as np
    a = np.arange(16).reshape(4, 4) / 40.0 + 0.3j * np.eye(4)
    x = np.ones(4, dtype=complex)
    t0 = perf_counter()
    for _ in range(100_000):
        x = a @ x
        x /= np.sqrt(np.vdot(x, x).real)
    return perf_counter() - t0


def run(spec):
    proto = sys.stdout
    _import_cmsense()
    from cmsense import cli
    from cmsense.config import load_config, validate
    cells = spec["cells"]
    for cell in cells:
        errs = [d for d in validate(load_config(cell["path"])) if d.startswith("error")]
        if errs:
            raise SystemExit(f"cell {cell['name']}: {'; '.join(errs)}")
    _emit(proto, {"ready": True})
    setup_calib = _calibrate()
    if spec.get("setup_only"):
        _emit(proto, {"calib_s": setup_calib})
        return

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
    work = Path(spec["workdir"])
    passes, layer_runs, csv_first, csv_changed = [], [], {}, set()
    cells_attempted = cells_failed = 0
    calib = setup_calib
    t_begin = perf_counter()
    with open(os.devnull, "w") as devnull:
        while True:
            i = len(passes)
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.install()
            outs, ok = {}, {}
            if passes:
                calib = _calibrate()
            t0 = perf_counter()
            with contextlib.redirect_stdout(devnull):
                for cell in cells:
                    name = cell["name"]
                    outs[name] = work / f"pass{i}" / name
                    if traced:
                        tracer.cell = name
                    try:
                        ok[name] = cli.main(["run", "--config", cell["path"],
                                             "--out", str(outs[name])]) == 0
                    except Exception:  # a failing cell is counted, the loop goes on
                        ok[name] = False
                        traceback.print_exc(file=sys.stderr)
            wall = perf_counter() - t0
            if traced:
                tracer.uninstall()
                layer_runs.append(layer_metrics(tracer.take()))
            passes.append({"raw_s": wall, "wall_s": wall * CALIB_REF_S / calib,
                           "traced": traced})
            cells_attempted += len(cells)
            cells_failed += sum(not v for v in ok.values())
            for name, out in outs.items():
                for f in sorted(out.glob("*.csv")):
                    key = f"{name}/{f.name}"
                    if i == 0:
                        csv_first[key] = f.read_bytes()
                    elif csv_first.get(key) != f.read_bytes():
                        csv_changed.add(name)
            if len(passes) >= spec["min_passes"] and perf_counter() - t_begin >= spec["seconds"]:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = Checks()
    refs = json.loads(REFERENCES.read_text())[spec["size"]]
    info = []
    for cell in cells:
        name = cell["name"]
        cfg = json.loads(Path(cell["path"]).read_text())
        tables = [k for k in csv_first if k.startswith(name + "/")]
        checks.add(f"csv_repeat/{name}", tables and name not in csv_changed,
                   f"{len(passes)} passes, tables {tables}")
        for key in tables:
            table = key.split("/")[1][:-len(".csv")]
            rows = _read_csv(work / "pass0" / key)
            _check_cell(checks, name, cfg, table, rows, refs)
            info += _info(name, table, rows)
    engine_cell = spec.get("engine_check_cell")
    if engine_cell:
        cfg = json.loads(Path(next(c["path"] for c in cells if c["name"] == engine_cell)).read_text())
        checks.run(f"engine_agreement/{engine_cell}",
                   lambda: _engine_agreement(cfg, spec["seed"]))

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    layer = None
    if layer_runs:
        layer = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        layer["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in passes if p["traced"])
                                     - statistics.median(untraced))
    _emit(proto, {
        "setup_calib_s": setup_calib,
        "walls": untraced,
        "raw_walls": [p["raw_s"] for p in passes if not p["traced"]],
        "traced_walls": [p["wall_s"] for p in passes if p["traced"]],
        "peak_rss_mb": peak_rss_mb,
        "cells_attempted": cells_attempted,
        "cells_failed": cells_failed,
        "checks": checks.items,
        "layer": layer,
        "info": info,
        "env": _env_info(),
    })


def _info(name, table, rows):
    """Numbers reported as they are, never gated (known estimator defects)."""
    if table == "mle":
        return [f"{name}: T={r['T']:g} 1/Var={r['inv_var_per_K']:.4g} vs F={r['fisher']:.4g} "
                f"(n_boundary={r['n_boundary']:g})" for r in rows]
    if table == "mismatch":
        return [f"{name}: dm={r['delta_mis']:g} F={r['fisher']:.4g} +- {r['fisher_err']:.2g}"
                for r in rows]
    return []


def write_references():
    """Recompute I_E (and I_G for QFI cells) of every cell at both sizes."""
    _import_cmsense()
    from cmsense.config import ExperimentConfig, build_sensor
    from cmsense.qfi import env_qfi, global_qfi
    import workloads
    out = {"_generated_by": "python3 perfbench/worker.py --write-references"}
    for size, per_workload in workloads.CELLS.items():
        out[size] = {}
        for cells in per_workload.values():
            for name, cfg in cells:
                ec = ExperimentConfig.from_dict(cfg)
                theta, dt = float(ec.model["theta"]), float(ec.grid["dt"])
                three = ec.model["kind"] == "three_level"
                entry = out[size][name] = {}
                for t in ec.grid["t_list"]:
                    sensor = build_sensor(ec, t_plateau=float(t))
                    horizon = float(t) + (6.0 / ec.model["gamma"] if three else 0.0)
                    vals = {"I_E": env_qfi(sensor, theta, horizon, dt=dt).value}
                    if ec.preset in ("custom", "fig3_heisenberg"):
                        vals["I_G"] = global_qfi(sensor, theta, horizon, dt=dt).value
                    entry[repr(float(t))] = vals
                print(size, name, entry, file=sys.stderr)
    REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-references"]:
        write_references()
    else:
        run(json.loads(Path(sys.argv[1]).read_text()))
