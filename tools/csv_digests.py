"""SHA-256 of every CSV that the benchmark cells write, and a value-level
comparison of two such CSV trees.

    python3 tools/csv_digests.py                      # tiny and full, seeds 1 and 611
    python3 tools/csv_digests.py --sizes tiny --seeds 3
    python3 tools/csv_digests.py --keep runs/new      # also keep the CSVs
    python3 tools/csv_digests.py --compare runs/old runs/new

Runs every cell of perfbench/workloads.py, at each size and seed, through
`cmsense run --config <cell> --out <dir>` (the command-line entry point,
called in this process) and prints one line per CSV: its SHA-256, then
size/seed/workload/cell/table.csv.  The outputs go to a temporary
directory, or with --keep DIR to DIR/size/seed/workload/cell/.  Run it on
two checkouts and diff the outputs to show that a change leaves every
CSV byte identical.

--compare OLD NEW runs nothing: for each CSV of the tree OLD that differs
from its namesake under NEW it prints, per column, the largest relative
deviation |new - old| / max(|old|, |new|) over the rows and how many
values moved; a CSV missing from one side, a changed header, row count
or non-numeric field is named as such.  It also compares each cell's
provenance.json with its timing keys dropped (keys ending in `_s` or
`seconds`, `generated_utc` and `config.out`), printing every key path
whose value differs or is on one side only, and their count.  It reads
perfbench/ and writes nothing in the repo.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cmsense.cli import main as cmsense_main  # noqa: E402


def digests(sizes, seeds, keep=None):
    """[(label, sha256 hex)] of every CSV of every cell, in run order; the
    cells' outputs are kept under ``keep`` when given."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = Path(keep) if keep else Path(tmp)
        for size in sizes:
            for seed in seeds:
                for workload in workloads.CELLS[size]:
                    for name, cfg in workloads.cells(workload, size, seed):
                        label = f"{size}/{seed}/{workload}/{name}"
                        cell = trees / label
                        config = Path(tmp, label.replace("/", "_") + ".json")
                        config.write_text(json.dumps(cfg))
                        with contextlib.redirect_stdout(io.StringIO()):
                            status = cmsense_main(["run", "--config", str(config),
                                                   "--out", str(cell)])
                        if status != 0:
                            raise SystemExit(f"{label}: cmsense run exited {status}")
                        for csv_path in sorted(cell.glob("*.csv")):
                            out.append((f"{label}/{csv_path.name}",
                                        hashlib.sha256(csv_path.read_bytes()).hexdigest()))
    return out


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _deviation(a, b):
    """|b - a| / max(|a|, |b|) of two numeric fields (0 when equal, NaN
    included), or None when either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(y - x) / max(abs(x), abs(y))


def _leaves(value, path=""):
    """{key path: value} of every leaf of a JSON value, timing keys dropped:
    keys ending in `_s` or `seconds`, `generated_utc` and `config.out`."""
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in value.items()
                 if not (k.endswith(("_s", "seconds", "generated_utc"))
                         or f"{path}.{k}" == "config.out")]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {path: value}
    return {p: x for q, v in items for p, x in _leaves(v, q).items()}


def _provenance(old, new):
    """Lines naming every key path, timing keys dropped, whose value differs
    between the provenance.json files of the trees ``old`` and ``new``, and
    a summary line."""
    names = sorted({p.relative_to(old) for p in old.rglob("provenance.json")}
                   | {p.relative_to(new) for p in new.rglob("provenance.json")})
    lines, moved = [], 0
    for rel in names:
        a, b = (_leaves(json.loads((t / rel).read_text())) if (t / rel).is_file() else {}
                for t in (old, new))
        for key in sorted(a.keys() | b.keys()):
            x, y = a.get(key, "<missing>"), b.get(key, "<missing>")
            if x != y and not (x != x and y != y):  # NaN equals NaN here
                moved += 1
                lines.append(f"{rel} {key}: {x!r} -> {y!r}")
    lines.append(f"{moved} provenance values differ in {len(names)} provenance.json files "
                 "(timing keys dropped)")
    return lines


def compare(old, new):
    """Lines describing every CSV of the tree ``old`` that differs from its
    namesake under ``new``, and a summary line, then those of
    ``_provenance``."""
    old, new = Path(old), Path(new)
    names = sorted({p.relative_to(old) for p in old.rglob("*.csv")}
                   | {p.relative_to(new) for p in new.rglob("*.csv")})
    lines, same = [], 0
    for rel in names:
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            lines.append(f"{rel}: only in {old if a.is_file() else new}")
            continue
        if a.read_bytes() == b.read_bytes():
            same += 1
            continue
        ra, rb = _rows(a), _rows(b)
        if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
            lines.append(f"{rel}: header or row count differs")
            continue
        for c, column in enumerate(ra[0]):
            pairs = [(x[c], y[c]) for x, y in zip(ra[1:], rb[1:])]
            devs = [_deviation(x, y) for x, y in pairs]
            if any(d is None and x != y for d, (x, y) in zip(devs, pairs)):
                lines.append(f"{rel} {column}: non-numeric field differs")
            moved = [d for d in devs if d]
            if moved:
                lines.append(f"{rel} {column}: max rel {max(moved):.3e}, "
                             f"{len(moved)} of {len(pairs)} values moved")
    lines.append(f"{same} of {len(names)} CSVs byte identical")
    return lines + _provenance(old, new)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", nargs="+", default=["tiny", "full"], choices=sorted(workloads.CELLS))
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 611])
    p.add_argument("--keep", metavar="DIR", help="keep the cells' outputs under DIR")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="compare two kept trees value by value; runs nothing")
    args = p.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    for label, digest in digests(args.sizes, args.seeds, args.keep):
        print(digest, label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
