"""Seconds of thinning's decisions, the candidate draws excluded, on the
benchmark's `mle` T = 150 cell and `counting` mismatch cells.

    python3 tools/thin_rounds.py                  # 15 repeats, seed 1
    python3 tools/thin_rounds.py --repeats 31 --seed 3

Runs the `mle` cell's study at its two times and the `counting` mismatch
cell's sweep once, keeping the arguments and the records of every
`_engine._thin` call on a grid of 75 000 bins (the `mle` Fisher run and
draws at T = 150) and of every mismatch Fisher run, and the candidates
each call drew.  It then calls `_thin` again on each, with
`_engine._candidates` handing back the kept candidates, so that the
timing holds the decisions alone: `_thin`'s one loop, its passes over
the windows of the shared start's no-click trajectory and its rounds.
It prints per call the median seconds with their quartiles,
the rounds, the share of candidates decided on the shared trajectory,
and whether a second call drew the same records as the first.  It reads
perfbench/ and writes nothing.
"""

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cmsense import _engine, cli  # noqa: E402
from cmsense.config import ExperimentConfig  # noqa: E402

MLE_BINS = 75_000  # T = 150 at dt = 2e-3


def _calls(workload, cell_name, seed, keep):
    """[(label, thin args, records, candidates)] of the `_thin` calls of one
    benchmark cell whose StepOps ``ops`` give ``keep(ops)``."""
    cfg = ExperimentConfig.from_dict(dict(workloads.cells(workload, "full", seed))[cell_name])
    out, drawn, thin, draw = [], [], _engine._thin, _engine._candidates

    def kept_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def kept_thin(seg, ops, indices, seed, x=None, lo=0, stats=None):
        start = None if x is None else x.copy()
        res = thin(seg, ops, indices, seed, x, lo, stats)
        if keep(ops):
            label = f"{workload}/{cell_name} #{len(out)} ({len(indices)} x {ops.n_steps})"
            out.append((label, (seg, ops, indices, seed, start, lo), res[0], drawn[-1]))
        return res

    _engine._thin, _engine._candidates = kept_thin, kept_draw
    try:
        cli.run(cfg)
    finally:
        _engine._thin, _engine._candidates = thin, draw
    return out


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return f"{statistics.median(xs):.4f} ({q[0]:.4f}-{q[2]:.4f})"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=15)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    calls = (_calls("mle", "mle", args.seed, lambda ops: ops.n_steps == MLE_BINS)
             + _calls("counting", "mismatch", args.seed, lambda ops: True))
    draw, ok = _engine._candidates, True
    try:
        for label, thin_args, records, cands in calls:
            _engine._candidates = lambda *a, cands=cands: cands
            times, results = [], []
            for _ in range(args.repeats):
                stats = {"draw_s": 0.0, "draws": 0, "draw_parts": 1, "shared": 0, "rounds": 0}
                seg, ops, indices, seed, x, lo = thin_args
                x = None if x is None else x.copy()  # _thin writes the states it is given
                t0 = perf_counter()
                res = _engine._thin(seg, ops, indices, seed, x, lo, stats)
                times.append(perf_counter() - t0 - stats["draw_s"])
                results.append(res[0])
            same = _same(results[0], records) and _same(results[1], records)
            ok &= same
            n_cands = len(cands[0])
            print(f"{label}: {_quartiles(times)} s; {n_cands} candidates, "
                  f"{stats['shared'] / max(n_cands, 1):.3f} shared, {stats['rounds']} rounds; "
                  f"same records: {same}")
    finally:
        _engine._candidates = draw
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
