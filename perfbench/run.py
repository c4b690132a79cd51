"""cmsense benchmark: `cmsense run` workloads timed from outside the package.

    python3 perfbench/run.py --workload field --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload field counting mle --seed 1
    python3 perfbench/run.py --selftest

A run writes each cell's config (seed inserted) under .perfbench_out/,
starts the workload in a fresh process (worker.py) that calls
`cmsense.cli.main(["run", "--config", cell, "--out", dir])` for every cell
in a closed loop (one pass = all cells, one after another) until
--seconds have passed and at least two passes ran, then checks the
outputs outside the timed span.  Set-up is timed in that process and in
SETUP_PROBES more that stop once ready.

End-to-end metrics (--trace 0): wall_s, the median pass time; setup_s,
the median time from process start until the first cell can start
(import cmsense, load and validate the cell configs); peak_rss_mb of
the workload process.  Both times are scaled to a reference core speed:
each is multiplied by CALIB_REF_S / (a fixed loop's time measured in the
same process just before), because a shared machine runs the same code
up to ~1.8x slower in phases of seconds to minutes.  The unscaled pass
times are printed too.  Failed cells and failed output checks are
counted in "failed"; error_rate = failed / attempted is printed.
With --trace 1 traced and untraced passes alternate, and the per-layer
metrics of tracer.py are the medians over the traced passes (self
times unscaled; trace.overhead_s scaled like wall_s).

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Every process started is waited for.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracer
import workloads
from worker import CALIB_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170

# one BLAS thread, so the only threads are the program's own pool threads;
# one malloc arena, so peak RSS measures the program's allocations rather
# than which pool thread's arena happened to serve them (with per-thread
# arenas it spread 61-80 MB over repeats of one seed of `counting`)
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "MALLOC_ARENA_MAX": "1"}


class BenchError(RuntimeError):
    pass


def _source_digest():
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "cmsense").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def _start_worker(spec_path):
    """Start a worker; return (process, seconds until its ready line)."""
    env = dict(os.environ, **WORKER_ENV)
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=str(ROOT))
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if not line.startswith('{"ready"'):
        _stop(proc)
        raise BenchError(f"worker not ready: {line!r}\n{proc.stderr.read()[-4000:]}")
    return proc, setup


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc):
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        _stop(proc)
    if err.strip():
        sys.stderr.write(err[-4000:])
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _probe(spec_path):
    """Set-up seconds of one fresh process, scaled to the reference speed."""
    proc, setup = _start_worker(spec_path)
    return setup * CALIB_REF_S / _finish(proc)["calib_s"]


def run_workload(name, seed, seconds, trace, size="full"):
    """Run one workload; returns (summary lines, result dict of the contract)."""
    if not (ROOT / "src" / "cmsense" / "__init__.py").is_file():
        raise BenchError(f"no cmsense sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        cells = []
        for cell, cfg in workloads.cells(name, size, seed):
            path = work / f"{cell}.json"
            path.write_text(json.dumps(cfg, indent=1))
            cells.append({"name": cell, "path": str(path)})
        spec = {"cells": cells, "seed": seed, "seconds": seconds, "trace": bool(trace),
                "size": size, "workdir": str(work), "min_passes": 2,
                "engine_check_cell": workloads.ENGINE_CHECK_CELL.get(name)}
        probe_spec = work / "probe.json"
        probe_spec.write_text(json.dumps(dict(spec, setup_only=True)))
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        # set-up time drifts in phases of seconds on a shared machine, so the
        # probes are split before and after the workload process
        setups = [_probe(probe_spec) for _ in range(SETUP_PROBES // 2)]
        proc, setup = _start_worker(spec_path)
        res = _finish(proc)
        setups.append(setup * CALIB_REF_S / res["setup_calib_s"])
        setups += [_probe(probe_spec) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = res["checks"]
    attempted = res["cells_attempted"] + len(checks)
    failed = res["cells_failed"] + sum(not c["ok"] for c in checks)
    walls = res["walls"]
    if trace:
        metrics = {n: {"value": res["layer"][n], "unit": u} for n, u in tracer.PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    env = dict(res["env"], git_sha=_git_sha(), src_sha256=_source_digest(), seed=seed,
               workload=name, size=size, seconds=seconds, trace=int(bool(trace)))
    lines = [f"# {name}: {len(walls)} untraced passes"
             + (f", {len(res['traced_walls'])} traced" if trace else "")
             + f", wall_s samples {[round(w, 4) for w in walls]}",
             f"#   wall_s tail: {_tail(walls)}",
             f"#   unscaled pass seconds {[round(w, 4) for w in res['raw_walls']]}",
             f"#   setup_s samples {[round(s, 4) for s in setups]}",
             f"#   error_rate {failed / attempted:.4g} ratio ({failed}/{attempted})"]
    lines += [f"#   {n} {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
    lines += [f"#   check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}"
              for c in checks]
    lines += [f"#   info {s}" for s in res["info"]]
    lines.append("# env " + json.dumps(env, sort_keys=True))
    return lines, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics, "checks": [c["name"] for c in checks]}


def _tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"none (n={n}; a tail percentile needs >= 11 samples)"
    k = n - 10  # the k-th smallest has ten samples above it
    return f"p{100.0 * k / n:.0f} = {sorted(samples)[k - 1]:.4f} s (n={n})"


def _contract(res):
    return {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}


def selftest():
    """Tiny size, every workload, both modes: names, units, checks, no errors."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        expected = _expected_checks(name)
        for trace in (0, 1):
            lines, res = run_workload(name, 1, 1, trace, size="tiny")
            print("\n".join(lines))
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(got.items())} "
                                f"!= {sorted(want[trace].items())}")
            if sorted(res["checks"]) != sorted(expected):
                problems.append(f"{name} trace={trace}: checks {res['checks']} "
                                f"!= expected {expected}")
            if res["failed"] or not res["correct"]:
                problems.append(f"{name} trace={trace}: error_rate "
                                f"{res['failed']}/{res['attempted']}")
    for p in problems:
        print("SELFTEST FAIL", p)
    print("SELFTEST", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def _expected_checks(name):
    per_table = {
        "custom": ["reference", "ig_ge_ie"],
        "fig3_heisenberg": ["reference", "ig_ge_ie", "fi_bound", "fi_bound_direct"],
        "fig2_mismatch": ["fi_bound"],
        "fig4_imperfections": ["fi_bound"],
        "fig2_mle": ["fi_bound", "mle_rows"],
    }
    out = []
    for cell, cfg in workloads.CELLS["tiny"][name]:
        out += [f"csv_repeat/{cell}"] + [f"{k}/{cell}" for k in per_table[cfg["preset"]]]
    if name in workloads.ENGINE_CHECK_CELL:
        out.append(f"engine_agreement/{workloads.ENGINE_CHECK_CELL[name]}")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            p.error("--workload is required")
        results = {}
        for name in args.workload:
            lines, res = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            results[name] = _contract(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
