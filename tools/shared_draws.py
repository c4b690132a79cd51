"""Seconds of thinning's candidate draws for the runs of a sweep that
share a seed: each run drawing its own against one shared draw.

    python3 tools/shared_draws.py                  # 15 pairs, seed 11
    python3 tools/shared_draws.py --pairs 31 --seed 3

Runs the benchmark's `counting` imperfections cell (the ideal cascade and
two (eta, gamma) settings, 256 records of 2500 bins, one seed) with its
draw sharing switched off, keeping the arguments of its three
`_engine._candidates` calls.  It then times those three calls against
one draw at their largest top plus each run's `_engine._kept` of it,
alternating which of the two runs first in each pair.

It checks that both ways give the same candidates, and prints the
medians with their quartiles and the share of pairs where the shared
draw was faster.  It reads perfbench/ and writes nothing.
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
from cmsense import _engine, cascade  # noqa: E402
from cmsense.cli import run  # noqa: E402
from cmsense.config import ExperimentConfig  # noqa: E402


def imperfections_draw_calls(seed):
    """(top, indices, seed, lo) of each `_candidates` call of the `counting`
    imperfections cell's runs, each run drawing its own."""
    cell = dict(workloads.cells("counting", "full", seed))["imperfections"]
    calls, draw, shared = [], _engine._candidates, cascade._shared_draws

    def keep(*args):
        calls.append(args)
        return draw(*args)

    _engine._candidates, cascade._shared_draws = keep, lambda top, seed: None
    try:
        run(ExperimentConfig.from_dict(cell))
    finally:
        _engine._candidates, cascade._shared_draws = draw, shared
    return calls


def _separate(calls):
    return [_engine._candidates(*call) for call in calls]


def _shared(calls):
    _, indices, seed, lo = calls[0]
    top = np.maximum.reduce([c[0] for c in calls])
    drawn = (top, *_engine._candidates(top, indices, seed, lo)[:2])
    return [_engine._kept(drawn, c[0], len(indices)) for c in calls]


def _alternate(pairs, a, b):
    """Seconds of a() and b() over ``pairs`` pairs, alternating which runs first."""
    times = {a: [], b: []}
    for i in range(pairs):
        for f in ((a, b) if i % 2 == 0 else (b, a)):
            t0 = perf_counter()
            f()
            times[f].append(perf_counter() - t0)
    return times[a], times[b]


def _same(xs, ys):
    return all(a.dtype == b.dtype and np.array_equal(a, b) for x, y in zip(xs, ys)
               for a, b in zip(x, y))


def _quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return f"{statistics.median(xs):.4f} ({q[0]:.4f}-{q[2]:.4f})"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pairs", type=int, default=15)
    p.add_argument("--seed", type=int, default=11)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2: the quartiles need two samples")
    calls = imperfections_draw_calls(args.seed)
    same = _same(_separate(calls), _shared(calls))
    alone, shared = _alternate(args.pairs, lambda: _separate(calls), lambda: _shared(calls))
    faster = sum(b < a for a, b in zip(alone, shared))
    print(f"imperfections cell: {len(calls)} runs of {len(calls[0][1])} records x "
          f"{len(calls[0][0])} bins; candidates identical: {same}")
    print(f"{len(calls)} separate _candidates s:    {_quartiles(alone)}")
    print(f"one shared draw + {len(calls)} _kept s: {_quartiles(shared)}")
    print(f"shared faster in {faster}/{args.pairs} pairs; median ratio "
          f"{statistics.median(shared) / statistics.median(alone):.3f}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
