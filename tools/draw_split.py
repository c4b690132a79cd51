"""Seconds of thinning's candidate draws: the records in one part (the
calling thread alone) against the records split over CPUs, and the runs
of a sweep that share a seed each drawing their own against one shared
draw.

    python3 tools/draw_split.py                  # 15 pairs, seed 11
    python3 tools/draw_split.py --pairs 31 --seed 3

Samples the records of the benchmark's `mle` cell at T = 150 (128 records
of 75 000 bins at dt = 2e-3, one chunk of 9.6M draws) once, keeping the
arguments of its `_engine._candidates` call.  It then times that call
serially and split into `_engine._parts` parts (at least 2), alternating
which of the two runs first in each pair.

It also runs the benchmark's `counting` imperfections cell (the ideal
cascade and two (eta, gamma) settings, 256 records of 2500 bins, one
seed) with its draw sharing switched off, keeping the arguments of its
three `_candidates` calls.  It then times those three calls against one
draw at their largest top plus each run's `_engine._kept` of it, again
alternating which runs first.

Each part checks that both ways give the same candidates, and prints the
medians with their quartiles and the share of pairs where the second way
was faster; the CPUs the process may run on come first.  It reads
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
from cmsense import _engine, cascade  # noqa: E402
from cmsense.cascade import cascade_generators, sample_records  # noqa: E402
from cmsense.cli import run  # noqa: E402
from cmsense.config import ExperimentConfig, _matched_two_level, build_sensor  # noqa: E402
from cmsense.propagate import TimeGrid  # noqa: E402

T_END = 150.0


def mle_draw_call(seed):
    """(top, indices, seed, lo) of the one `_candidates` call that samples
    the `mle` cell's records at T = 150."""
    (_, cell), = workloads.cells("mle", "full", seed)
    cfg = ExperimentConfig.from_dict(cell)
    theta = float(cfg.model["theta"])
    gen = cascade_generators(build_sensor(cfg), _matched_two_level(cfg, theta))
    calls, draw = [], _engine._candidates

    def keep(*args):
        calls.append(args[:4])
        return draw(*args)

    _engine._candidates = keep
    try:
        sample_records(gen, theta, TimeGrid(0.0, T_END, float(cfg.grid["dt"])),
                       int(cfg.estimation["n_records"]), seed=seed)
    finally:
        _engine._candidates = draw
    assert len(calls) == 1, f"{len(calls)} draw calls: the records took more than one chunk"
    return calls[0]


def imperfections_draw_calls(seed):
    """(top, indices, seed, lo) of each `_candidates` call of the `counting`
    imperfections cell's runs, each run drawing its own."""
    cell = dict(workloads.cells("counting", "full", seed))["imperfections"]
    calls, draw, shared = [], _engine._candidates, cascade._shared_draws

    def keep(*args):
        calls.append(args[:4])
        return draw(*args)

    _engine._candidates, cascade._shared_draws = keep, lambda top, seed: None
    try:
        run(ExperimentConfig.from_dict(cell))
    finally:
        _engine._candidates, cascade._shared_draws = draw, shared
    return calls


def _separate(calls):
    return [_engine._candidates(top, indices, seed, lo, _engine._parts(len(indices), len(top)))
            for top, indices, seed, lo in calls]


def _shared(calls):
    top, indices, seed, lo = calls[0]
    top = np.maximum.reduce([c[0] for c in calls])
    drawn = (top, *_engine._candidates(top, indices, seed, lo,
                                       _engine._parts(len(indices), len(top)))[:2])
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
    top, indices, seed, lo = mle_draw_call(args.seed)
    parts = max(2, _engine._parts(len(indices), len(top)))
    serial_draw = lambda: _engine._candidates(top, indices, seed, lo, 1)
    split_draw = lambda: _engine._candidates(top, indices, seed, lo, parts)
    first = serial_draw()
    same = _same([first], [split_draw()])
    serial, split = _alternate(args.pairs, serial_draw, split_draw)
    faster = sum(b < a for a, b in zip(serial, split))
    print(f"cpus allowed: {_engine._cpus()}; draws: {len(indices)} records x {len(top)} bins "
          f"= {len(indices) * len(top)}, threshold _SPLIT_DRAWS = {_engine._SPLIT_DRAWS}")
    print(f"candidates identical: {same} ({len(first[0])} candidates)")
    print(f"serial   _candidates s: {_quartiles(serial)}")
    print(f"{parts} parts  _candidates s: {_quartiles(split)}")
    print(f"split faster in {faster}/{args.pairs} pairs; median ratio "
          f"{statistics.median(split) / statistics.median(serial):.3f}")

    calls = imperfections_draw_calls(args.seed)
    shared_same = _same(_separate(calls), _shared(calls))
    alone, shared = _alternate(args.pairs, lambda: _separate(calls), lambda: _shared(calls))
    faster = sum(b < a for a, b in zip(alone, shared))
    print(f"imperfections cell: {len(calls)} runs of {len(calls[0][1])} records x "
          f"{len(calls[0][0])} bins; candidates identical: {shared_same}")
    print(f"{len(calls)} separate _candidates s:    {_quartiles(alone)}")
    print(f"one shared draw + {len(calls)} _kept s: {_quartiles(shared)}")
    print(f"shared faster in {faster}/{args.pairs} pairs; median ratio "
          f"{statistics.median(shared) / statistics.median(alone):.3f}")
    return 0 if same and shared_same else 1


if __name__ == "__main__":
    sys.exit(main())
