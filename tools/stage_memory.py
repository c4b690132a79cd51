"""Peak traced memory of each pipeline stage of the benchmark cells.

    python3 tools/stage_memory.py                         # full size, seed 1, every workload
    python3 tools/stage_memory.py --size tiny --workloads field --seed 3

Runs every cell of perfbench/workloads.py through `cmsense run --config
<cell> --out <dir>` (the command-line entry point, called in this process)
under tracemalloc, and prints, per cell, the peak of each stage above the
memory held when it started (`qfi_pair`, `build_decoder`, every Fisher
run, and the draws and grid replays of a likelihood study), then the
cell's peak above its start.  Memory is in MB of 2^20 bytes and counts
what Python and numpy allocate, not the process's resident set.  It reads
perfbench/ and writes nothing in the repo.
"""

import argparse
import contextlib
import functools
import io
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cmsense import cascade, cli, estimate  # noqa: E402

# (module, function name): every name through which a pipeline calls a stage
STAGES = [(cli, "qfi_pair"), (cli, "build_decoder"), (cli, "fisher_from_trajectories"),
          (cascade, "fisher_from_trajectories"), (estimate, "fisher_from_trajectories"),
          (estimate, "sample_records"), (estimate, "replay_records")]
MB = 2.0 ** 20


class StageMeter:
    """Peaks of nested traced spans: tracemalloc keeps one peak, so a span
    hands the peak it saw to the span around it before resetting."""

    def __init__(self):
        self.peaks = [0]  # the running peak of each open span, innermost last
        self.rows = []  # (label, MB above the span's start), in end order

    @contextlib.contextmanager
    def span(self, label):
        start, peak = tracemalloc.get_traced_memory()
        self.peaks[-1] = max(self.peaks[-1], peak)
        tracemalloc.reset_peak()
        self.peaks.append(0)
        try:
            yield
        finally:
            peak = max(self.peaks.pop(), tracemalloc.get_traced_memory()[1])
            self.peaks[-1] = max(self.peaks[-1], peak)
            self.rows.append((label, (peak - start) / MB))

    def wrap(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(_label(fn.__name__, args)):
                return fn(*args, **kwargs)
        return traced


def _label(name, args):
    """The stage name with what tells its calls apart: the cascade's
    decoder and the grid's bin count."""
    gen = next((a for a in args if isinstance(a, cascade.CascadeGenerators)), None)
    grid = next((a for a in args if hasattr(a, "n_steps")), None)
    parts = [name]
    if gen is not None:
        parts.append("decoder" if gen.decoder is not None else "direct")
    if grid is not None:
        parts.append(f"n={grid.n_steps}")
    return " ".join(parts)


def measure(size, seed, names):
    """Print each cell's stage peaks and cell peak."""
    meter = StageMeter()
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in STAGES]
    for mod, attr, fn in saved:
        setattr(mod, attr, meter.wrap(fn))
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for workload in names:
                for name, cfg in workloads.cells(workload, size, seed):
                    config = Path(tmp, f"{workload}_{name}.json")
                    config.write_text(json.dumps(cfg))
                    meter.rows = []
                    with meter.span("cell"), contextlib.redirect_stdout(io.StringIO()):
                        status = cli.main(["run", "--config", str(config),
                                           "--out", str(Path(tmp, f"{workload}_{name}"))])
                    if status != 0:
                        raise SystemExit(f"{workload}/{name}: cmsense run exited {status}")
                    print(f"{size}/{seed}/{workload}/{name}")
                    for label, mb in meter.rows[:-1]:
                        print(f"  {mb:8.2f} MB  {label}")
                    print(f"  {meter.rows[-1][1]:8.2f} MB  cell peak")
    finally:
        tracemalloc.stop()
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", default="full", choices=sorted(workloads.CELLS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", default=list(workloads.CELLS["full"]))
    args = p.parse_args(argv)
    measure(args.size, args.seed, args.workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
