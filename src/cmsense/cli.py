"""Command-line front end.

Subcommands: run (execute a config or preset and write CSV/JSON
results), validate (schema + physics lints, no execution), presets
(list or dump the built-in experiment presets).

All tables are plain CSV, UTF-8, '.' decimal separator, one header
row; a provenance.json sidecar echoes the config, library versions
and derived scalars.  Identical config + seed reproduce the CSV bytes
exactly.  A config that ``validate`` rejects, malformed values included,
stops with one "error: ..." line and exit status 2, as does a guard that
stops a run.  The config's ``threads`` key is still validated but
changes nothing: every record batch runs in the calling thread.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import perf_counter

import numpy as np

from . import __version__
from .cascade import (
    Imperfections,
    cascade_generators,
    fisher_from_trajectories,
    mismatch_sweep,
)
from .config import (
    ExperimentConfig,
    PRESET_NAMES,
    build_sensor,
    load_config,
    preset_config,
    grid_ends,
    preset_summaries,
    validate,
)
from .decoder import build_decoder, two_level_decoder
from .errors import CmsenseError, ConfigInvalid
from .estimate import interrogation_study, study_table
from .propagate import TimeGrid
from .qfi import qfi_pair

__all__ = ["ResultBundle", "run", "main"]


@dataclass(eq=False)
class ResultBundle:
    """Config echo, named CSV tables, and provenance for one run."""

    config: dict
    tables: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def add_table(self, name, header, rows):
        self.tables[name] = (list(header), [list(r) for r in rows])

    def csv_bytes(self, name):
        header, rows = self.tables[name]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v
                        for v in row])
        return buf.getvalue().encode("utf-8")

    def write(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        paths = []
        for name in sorted(self.tables):
            path = os.path.join(outdir, f"{name}.csv")
            with open(path, "wb") as fh:
                fh.write(self.csv_bytes(name))
            paths.append(path)
        side = os.path.join(outdir, "provenance.json")
        with open(side, "w", encoding="utf-8") as fh:
            json.dump({"config": self.config, **self.provenance}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        return paths + [side]


def _matched_two_level(cfg, theta):
    m = cfg.model
    return two_level_decoder(m["omega"], -theta, m["gamma"])


def _report_fisher(report, label, fi):
    """Add a Fisher estimate's diagnostics to the provenance report, and
    a warning when every score is exactly zero (a null point, where the
    estimate reads 0 +/- 0 whatever the information is)."""
    report.setdefault("estimators", []).append({
        "label": label, "n_traj": fi.n_traj, "mean_clicks": fi.mean_clicks,
        "mean_score": fi.mean_score, "mean_score_se": fi.mean_score_se,
        "n_steps": fi.n_steps, "chunks": fi.chunks, "seconds": fi.seconds,
        "candidates": fi.candidates, "table_s": fi.table_s, "sample_s": fi.sample_s,
        "score_s": fi.score_s,
    })
    if fi.null_point:
        report.setdefault("warnings", []).append(
            f"warn: {label}: every score is exactly zero (null point); "
            "the Fisher estimate 0 +/- 0 is not informative")


def _fisher(gen, theta, grid, n_traj, cfg, report, label):
    fi = fisher_from_trajectories(gen, theta, grid, n_traj, seed=cfg.seed)
    _report_fisher(report, label, fi)
    return fi


def _scan_pipeline(cfg, report):
    """(T, I_E, I_G[, F_decoder, err, F_direct, err]) for each T."""
    theta = float(cfg.model["theta"])
    dt = float(cfg.grid["dt"])
    n_traj = int(cfg.estimation["n_traj"])
    three = cfg.model["kind"] == "three_level"
    rows = []
    for t_end, horizon in grid_ends(cfg):
        sensor = build_sensor(cfg, t_plateau=t_end)
        grid = TimeGrid(0.0, horizon, dt)
        t0 = perf_counter()
        env, glob = qfi_pair(sensor, theta, horizon, dt=dt)
        report.setdefault("qfi", []).append({
            "T": float(t_end), "propagations": env.propagations,
            "seconds": perf_counter() - t0,
            **{kind: {"fd_step": q.fd_step, "fidelity_evals": len(q.fidelity_samples)}
               for kind, q in (("env", env), ("global", glob))}})
        row = [float(t_end), env.value, glob.value]
        if n_traj > 0:
            if three:
                t0 = perf_counter()
                dec = build_decoder(sensor, theta, grid)
                report.setdefault("decoders", []).append(
                    {"label": f"T={t_end}", "herm_residual": dec.herm_residual,
                     "seconds": perf_counter() - t0})
            else:
                dec = _matched_two_level(cfg, theta)
            fd = _fisher(cascade_generators(sensor, dec), theta, grid, n_traj, cfg,
                         report, f"T={t_end} decoder")
            fx = _fisher(cascade_generators(sensor), theta, grid, n_traj, cfg,
                         report, f"T={t_end} direct")
            row += [fd.value, fd.std_error, fx.value, fx.std_error]
        rows.append(row)
    header = ["T", "I_E", "I_G"]
    if n_traj > 0:
        header += ["F_decoder", "F_decoder_err", "F_direct", "F_direct_err"]
    return header, rows


def _mle_pipeline(cfg, report):
    theta = float(cfg.model["theta"])
    sensor = build_sensor(cfg)
    dec = _matched_two_level(cfg, theta)
    gen = cascade_generators(sensor, dec)
    est = cfg.estimation
    rows = interrogation_study(
        gen, theta, [end for _, end in grid_ends(cfg)],
        int(est["n_records"]), float(cfg.grid["dt"]), seed=cfg.seed,
        n_grid=int(est["n_grid"]), fisher_n_traj=int(est["n_traj"]) or None,
    )
    for r in rows:
        _report_fisher(report, f"T={r.t_end}", r.fisher_estimate)
        report["estimators"][-1]["grid_s"] = r.grid_s  # the theta-grid replay
    table = study_table(rows)
    header = list(table[0].keys())
    return header, [[d[k] for k in header] for d in table]


def _mismatch_pipeline(cfg, report):
    theta = float(cfg.model["theta"])
    sensor = build_sensor(cfg)
    grid = TimeGrid(0.0, grid_ends(cfg)[0][1], float(cfg.grid["dt"]))
    res = mismatch_sweep(
        sensor, theta, [float(v) for v in cfg.mismatch["values"]], grid,
        int(cfg.estimation["n_traj"]), seed=cfg.seed,
    )
    for dm, f in zip(res.mismatches, res.fisher):
        _report_fisher(report, f"delta_mis={dm}", f)
    report["fwhm"] = float(res.fwhm) if np.isfinite(res.fwhm) else None  # NaN: no JSON
    rows = [[dm, f.value, f.std_error]
            for dm, f in zip(res.mismatches, res.fisher)]
    return ["delta_mis", "fisher", "fisher_err"], rows


def _imperfections_pipeline(cfg, report):
    theta = float(cfg.model["theta"])
    sensor = build_sensor(cfg)
    dec = _matched_two_level(cfg, theta)
    grid = TimeGrid(0.0, grid_ends(cfg)[0][1], float(cfg.grid["dt"]))
    n_traj = int(cfg.estimation["n_traj"])
    ideal = _fisher(cascade_generators(sensor, dec), theta, grid, n_traj, cfg,
                    report, "ideal")
    rows = []
    for eta in cfg.imperfections["eta_list"]:
        for gam in cfg.imperfections["gamma_list"]:
            imp = Imperfections(gamma=float(gam), eta=float(eta))
            fi = _fisher(cascade_generators(sensor, dec, imperfections=imp),
                         theta, grid, n_traj, cfg, report, f"eta={eta} gamma={gam}")
            ratio = fi.value / ideal.value if ideal.value > 0 else float("nan")
            rows.append([float(eta), float(gam), fi.value, fi.std_error, ratio])
    report["ideal_fisher"] = ideal.value
    header = ["eta", "gamma", "fisher", "fisher_err", "ratio_to_ideal"]
    return header, rows


# preset -> (table name, pipeline); a pipeline returns (header, rows) and
# adds what explains the numbers to the provenance report it is given
_PIPELINES = {
    "fig2_qfi_scan": ("qfi_scan", _scan_pipeline),
    "custom": ("qfi_scan", _scan_pipeline),
    "fig3_heisenberg": ("heisenberg", _scan_pipeline),
    "fig2_mle": ("mle", _mle_pipeline),
    "fig2_mismatch": ("mismatch", _mismatch_pipeline),
    "fig4_imperfections": ("imperfections", _imperfections_pipeline),
}


def _errors(diags):
    """The "error: " entries of ``diags`` without that prefix, which
    ``main`` prints once."""
    return [d[len("error: "):] for d in diags if d.startswith("error: ")]


def run(cfg: ExperimentConfig) -> ResultBundle:
    """Execute the configured experiment; returns tables in memory."""
    diags = validate(cfg)
    errors = _errors(diags)
    if errors:
        raise ConfigInvalid("; ".join(errors))
    bundle = ResultBundle(config=cfg.to_dict())
    if cfg.preset not in _PIPELINES:
        raise ConfigInvalid(f"preset: no pipeline for {cfg.preset!r}")
    name, pipeline = _PIPELINES[cfg.preset]
    report = {}
    bundle.add_table(name, *pipeline(cfg, report))
    bundle.provenance = {
        "version": __version__,
        "numpy": np.__version__,
        "seed": cfg.seed,
        "diagnostics": diags + report.pop("warnings", []),
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        **report,
    }
    # the bundle must re-validate cleanly from its own echo
    echo = ExperimentConfig.from_dict(bundle.config)
    errs = _errors(validate(echo))
    if errs:
        raise ConfigInvalid("result bundle failed re-validation: " + "; ".join(errs))
    return bundle


def _load_for(args):
    if args.config:
        cfg = load_config(args.config)
    elif getattr(args, "preset", None):
        cfg = preset_config(args.preset)
    else:
        raise ConfigInvalid("run: provide --config PATH or --preset NAME")
    if args.seed is not None:
        cfg.seed = int(args.seed)
    if getattr(args, "out", None):
        cfg.out = args.out
    return cfg


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="cmsense",
        description="Emission-field sensing laboratory: QFI, decoders, "
                    "counting records, estimation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="execute a config or preset, write CSV + JSON")
    pr.add_argument("--config", help="path to a JSON config")
    pr.add_argument("--preset", choices=[n for n in PRESET_NAMES if n != "custom"],
                    help="run a built-in preset unchanged")
    pr.add_argument("--seed", type=int, default=None, help="override config seed")
    pr.add_argument("--out", help="output directory (default from config)")

    pv = sub.add_parser("validate", help="check a config, print diagnostics")
    pv.add_argument("--config", required=True)
    pv.add_argument("--seed", type=int, default=None)

    pp = sub.add_parser("presets", help="list presets or dump one as JSON")
    pp.add_argument("--show", metavar="NAME", help="print the named preset config")

    args = p.parse_args(argv)

    if args.command == "presets":
        if args.show:
            try:
                cfg = preset_config(args.show)
            except CmsenseError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        else:
            for name in PRESET_NAMES:
                print(f"{name:20s} {preset_summaries()[name]}")
        return 0

    if args.command == "validate":
        try:
            cfg = _load_for(args)
        except CmsenseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        diags = validate(cfg)
        for d in diags:
            print(d)
        if not diags:
            print("ok: config is runnable")
        return 2 if any(d.startswith("error") for d in diags) else 0

    try:
        cfg = _load_for(args)
        bundle = run(cfg)
    except CmsenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    paths = bundle.write(cfg.out)
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
