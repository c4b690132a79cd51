"""SHA-256 of every CSV that the benchmark cells write.

    python3 tools/csv_digests.py                      # tiny and full, seeds 1 and 611
    python3 tools/csv_digests.py --sizes tiny --seeds 3

Runs every cell of perfbench/workloads.py, at each size and seed, through
`cmsense run --config <cell> --out <dir>` (the command-line entry point,
called in this process) into a temporary directory, and prints one line
per CSV: its SHA-256, then size/seed/workload/cell/table.csv.  Run it on
two checkouts and diff the outputs to show that a change leaves every
CSV byte identical.  It reads perfbench/ and writes nothing in the repo.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cmsense.cli import main as cmsense_main  # noqa: E402


def digests(sizes, seeds):
    """[(label, sha256 hex)] of every CSV of every cell, in run order."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for size in sizes:
            for seed in seeds:
                for workload in workloads.CELLS[size]:
                    for name, cfg in workloads.cells(workload, size, seed):
                        label = f"{size}/{seed}/{workload}/{name}"
                        cell = Path(tmp, label.replace("/", "_"))
                        config = cell.with_suffix(".json")
                        config.write_text(json.dumps(cfg))
                        with contextlib.redirect_stdout(io.StringIO()):
                            status = cmsense_main(["run", "--config", str(config),
                                                   "--out", str(cell)])
                        if status != 0:
                            raise SystemExit(f"{label}: cmsense run exited {status}")
                        for csv in sorted(cell.glob("*.csv")):
                            out.append((f"{label}/{csv.name}",
                                        hashlib.sha256(csv.read_bytes()).hexdigest()))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", nargs="+", default=["tiny", "full"], choices=sorted(workloads.CELLS))
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 611])
    args = p.parse_args(argv)
    for label, digest in digests(args.sizes, args.seeds):
        print(digest, label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
