"""Seconds of thinning's candidate draws: the records in one part (the
calling thread alone) against the records split over CPUs.

    python3 tools/draw_split.py                  # 15 pairs, seed 11
    python3 tools/draw_split.py --pairs 31 --seed 3

Samples the records of the benchmark's `mle` cell at T = 150 (128 records
of 75 000 bins at dt = 2e-3, one chunk of 9.6M draws) once, keeping the
arguments of its `_engine._candidates` call.  It then times that call
serially and split into `_engine._parts` parts (at least 2), alternating
which of the two runs first in each pair, checks that both give the same
candidates, and prints the CPUs the process may run on, the medians with
their quartiles, and the share of pairs where the split was faster.  It
reads perfbench/ and writes nothing.
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
from cmsense import _engine  # noqa: E402
from cmsense.cascade import cascade_generators, sample_records  # noqa: E402
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
    serial = _engine._candidates(top, indices, seed, lo, 1)
    split = _engine._candidates(top, indices, seed, lo, parts)
    same = all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(serial, split))
    times = {1: [], parts: []}
    for i in range(args.pairs):
        for k in ((1, parts) if i % 2 == 0 else (parts, 1)):
            t0 = perf_counter()
            _engine._candidates(top, indices, seed, lo, k)
            times[k].append(perf_counter() - t0)
    faster = sum(b < a for a, b in zip(times[1], times[parts]))
    print(f"cpus allowed: {_engine._cpus()}; draws: {len(indices)} records x {len(top)} bins "
          f"= {len(indices) * len(top)}, threshold _SPLIT_DRAWS = {_engine._SPLIT_DRAWS}")
    print(f"candidates identical: {same} ({len(serial[0])} candidates)")
    print(f"serial   _candidates s: {_quartiles(times[1])}")
    print(f"{parts} parts  _candidates s: {_quartiles(times[parts])}")
    print(f"split faster in {faster}/{args.pairs} pairs; median ratio "
          f"{statistics.median(times[parts]) / statistics.median(times[1]):.3f}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
