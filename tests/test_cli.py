import csv
import hashlib
import json
import re

import pytest

from cmsense.cli import ResultBundle, main, run
from cmsense.config import ExperimentConfig
from cmsense.errors import ConfigInvalid


def _tiny_cfg(**over):
    data = {
        "model": {"omega": 1.0, "delta": 0.0, "gamma": 1.0, "theta": 0.0},
        "grid": {"dt": 2e-3, "t_list": [3.0]},
        "estimation": {"n_traj": 25},
        "seed": 3,
    }
    data.update(over)
    return data


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2_qfi_scan", "fig2_mle", "fig2_mismatch",
                 "fig3_heisenberg", "fig4_imperfections", "custom"):
        assert name in out


def test_presets_listing_bytes_frozen(capsys):
    # SHA-256 of the listing, frozen before the presets moved into one table
    assert main(["presets"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "dbc7eb260d0883fc1caaa3655ed170e41f8b9a83671fd8c721bb445552ff2dea")


def test_presets_show(capsys):
    assert main(["presets", "--show", "fig2_mle"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["preset"] == "fig2_mle"
    assert dumped["grid"]["t_list"] == [150.0, 400.0, 850.0]

    assert main(["presets", "--show", "nope"]) == 2


def test_validate_command(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_tiny_cfg()))
    assert main(["validate", "--config", str(good)]) == 0
    assert "ok" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"dt": -1.0}}))
    assert main(["validate", "--config", str(bad)]) == 2
    assert "grid.dt" in capsys.readouterr().out

    # a malformed value is a diagnostic and exit 2, not a traceback
    bad.write_text(json.dumps({"threads": "2"}))
    assert main(["validate", "--config", str(bad)]) == 2
    assert capsys.readouterr().out.startswith("error: threads: ")

    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def test_ragged_grid_is_a_guard_error(tmp_path, capsys):
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"grid": {"dt": 3e-4, "t_list": [1.0]},
                                  "estimation": {"n_traj": 0}}))
    assert main(["validate", "--config", str(ragged)]) == 2
    assert "error: grid.t_list" in capsys.readouterr().out
    assert main(["run", "--config", str(ragged), "--out", str(tmp_path / "o")]) == 2
    # the prefix is printed once, not "error: error: grid.t_list: ..."
    err = capsys.readouterr().err
    assert err.startswith("error: grid.t_list: ") and err.count("error:") == 1
    assert not (tmp_path / "o").exists()


def test_validate_checks_the_grid_the_run_builds(tmp_path, capsys):
    # fig4_imperfections runs on [0, T]: T = 1 is not a whole number of
    # 3.5e-3 steps (7 is), T = 0.7 is
    cfgfile = tmp_path / "cfg.json"
    model = {"kind": "two_level", "omega": 1.0, "delta": 1.0, "gamma": 1.0, "theta": 1.0}
    for t_end, ragged in ((1.0, True), (0.7, False)):
        cfgfile.write_text(json.dumps({"preset": "fig4_imperfections", "model": model,
                                       "grid": {"dt": 3.5e-3, "t_list": [t_end]}}))
        assert main(["validate", "--config", str(cfgfile)]) == (2 if ragged else 0)
        assert ("error: grid.t_list: the grid of T = 1 ends at 1," in
                capsys.readouterr().out) is ragged
    cfgfile.write_text(json.dumps({"preset": "fig4_imperfections", "model": model,
                                   "grid": {"dt": 3.5e-3, "t_list": [1.0]}}))
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: grid.t_list: ")


def test_validate_rejects_a_three_level_sensor_with_a_two_level_decoder(tmp_path, capsys):
    # this config ran and wrote 1.0,0.0,0.0,0.0,nan: the pulsed three-level
    # sensor cascaded into the two-level decoder that fig4_imperfections builds
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "preset": "fig4_imperfections",
        "model": {"kind": "three_level", "omega": 5.0, "delta": 0.0, "gamma": 1.0, "theta": 0.0},
        "grid": {"dt": 3.5e-3, "t_list": [0.7]}, "estimation": {"n_traj": 16}}))
    assert main(["validate", "--config", str(cfgfile)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: model.kind: fig4_imperfections") and "ok" not in out
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: model.kind: ")
    assert not (tmp_path / "o").exists()


def test_one_record_custom_run_stops(tmp_path, capsys):
    # this config ran and wrote F_decoder_err 0.0 and F_direct_err 0.0 at seed 3:
    # the error of one record's Fisher estimate
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(_tiny_cfg(estimation={"n_traj": 1})))
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: estimation.n_traj: 1, but ")
    assert not (tmp_path / "o").exists()


def test_run_validates_once(monkeypatch):
    # the echo of the config is checked to read back as the config, not
    # validated a second time
    from cmsense import cli
    calls = []
    check = cli.validate
    monkeypatch.setattr(cli, "validate", lambda cfg: calls.append(cfg) or check(cfg))
    bundle = run(ExperimentConfig.from_dict(_tiny_cfg(estimation={"n_traj": 0})))
    assert len(calls) == 1 and bundle.config["seed"] == 3


def test_run_refuses_a_pipeline_that_changes_its_config(monkeypatch):
    # the echo is taken before the pipeline runs, so a pipeline that
    # changes the config in place would leave a stale echo behind
    from cmsense import cli

    def pipeline(cfg, report):
        cfg.model["omega"] = 2.0
        return ["x"], [[1.0]]
    monkeypatch.setitem(cli._PIPELINES, "scan", pipeline)
    with pytest.raises(ConfigInvalid, match="does not echo its config"):
        run(ExperimentConfig.from_dict(_tiny_cfg()))


@pytest.mark.parametrize("kind", ["two_level", "three_level"])
def test_validate_rejects_a_model_that_does_not_build(tmp_path, capsys, kind):
    # gamma = 0 builds no model
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"model": {"kind": kind, "gamma": 0.0}}))
    assert main(["validate", "--config", str(cfgfile)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: model.gamma: gamma must be positive") and "ok" not in out


def test_run_requires_source(capsys):
    assert main(["run"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_reports_step_guard_as_error(tmp_path, capsys):
    # the cascaded sensor + decoder tables load the step just above the
    # 0.05 guard: an "error:" line with a number that reads above it, no traceback
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(_tiny_cfg(
        preset="fig3_heisenberg",
        model={"kind": "three_level", "omega": 5.0, "delta": 0.0, "gamma": 1.0,
               "theta": 0.0},
        grid={"dt": 2e-3, "t_list": [2.0]}, estimation={"n_traj": 4})))
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    load = re.search(r"= ([-+.\deE]+) exceeds", err)
    assert load is not None and float(load.group(1)) > 0.05


def test_run_writes_tables(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(_tiny_cfg()))
    outdir = tmp_path / "res"
    assert main(["run", "--config", str(cfgfile), "--out", str(outdir)]) == 0

    with open(outdir / "qfi_scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T", "I_E", "I_G", "F_decoder", "F_decoder_err",
                       "F_direct", "F_direct_err"]
    assert len(rows) == 2
    vals = [float(x) for x in rows[1]]
    assert vals[0] == 3.0
    assert vals[2] >= vals[1] > 0  # global bounds emission

    prov = json.loads((outdir / "provenance.json").read_text())
    assert prov["seed"] == 3
    assert prov["config"]["grid"]["t_list"] == [3.0]
    assert "version" in prov and "numpy" in prov


def test_provenance_reports_estimators_and_null_point():
    # theta = 0 with a matched decoder (mismatch 0): every score is exactly
    # zero, which the report flags; the mismatched decoder is not flagged
    bundle = run(ExperimentConfig.from_dict(_tiny_cfg(
        preset="fig2_mismatch", grid={"dt": 2e-3, "t_list": [1.0]},
        estimation={"n_traj": 16}, mismatch={"values": [0.0, 4.0]})))
    prov = bundle.provenance
    est = prov["estimators"]
    assert [e["label"] for e in est] == ["delta_mis=0.0", "delta_mis=4.0"]
    for e in est:
        assert set(e) == {"label", "n_traj", "mean_clicks", "mean_score",
                          "mean_score_se", "n_steps", "chunks", "seconds", "candidates",
                          "table_s", "sample_s", "draw_s", "draws", "draw_parts", "shared",
                          "rounds", "score_s", "windows", "table_mb"}
        # the stage timers: table build, thinning, tangent replay
        stages = (e["table_s"], e["sample_s"], e["score_s"])
        assert min(stages) > 0.0 and sum(stages) <= e["seconds"]
        # thinning's candidate draws, part of it: 16 x 500 draws stay in
        # the calling thread
        assert 0.0 < e["draw_s"] <= e["sample_s"] and e["draw_parts"] == 1
        # each mismatch estimate has a seed of its own, so it draws its own
        assert e["draws"] == 16 * 500
        # every estimate samples on the click-to-click core, which reports
        # its thinning candidates (at least the clicks) per record
        assert e["n_traj"] == 16
        assert e["n_steps"] == 500 and e["chunks"] == 1 and e["seconds"] > 0.0
        # a static cascade runs in one window of tables
        assert e["windows"] == 1 and e["table_mb"] > 0.0
        assert e["candidates"] >= e["mean_clicks"] and e["candidates"] > 0.0
    assert all(b"candidates" not in bundle.csv_bytes(name) for name in bundle.tables)
    assert est[0]["mean_score"] == 0.0 and est[1]["mean_score"] != 0.0
    warns = [d for d in prov["diagnostics"] if "null point" in d]
    assert len(warns) == 1 and warns[0].startswith("warn: delta_mis=0.0:")


def test_provenance_reports_synthesized_decoder():
    bundle = run(ExperimentConfig.from_dict(_tiny_cfg(
        preset="fig3_heisenberg",
        model={"kind": "three_level", "omega": 5.0, "delta": 0.0, "gamma": 1.0,
               "theta": 0.0},
        grid={"dt": 2e-3, "t_list": [0.5]}, estimation={"n_traj": 4})))
    prov = bundle.provenance
    (dec,) = prov["decoders"]
    assert dec["label"] == "T=0.5" and dec["herm_residual"] > 0.0
    assert set(dec) == {"label", "herm_residual", "seconds"} and dec["seconds"] > 0.0
    assert [set(q) for q in prov["qfi"]] == [{"T", "propagations", "seconds", "env", "global"}]
    assert b"seconds" not in bundle.csv_bytes("heisenberg")
    assert [e["label"] for e in prov["estimators"]] == ["T=0.5 decoder", "T=0.5 direct"]
    # the pulsed three-level model is time dependent and still runs on the
    # click-to-click core, which reports its thinning candidates per record
    assert all(e["candidates"] >= e["mean_clicks"] for e in prov["estimators"])
    # 3250 bins: the decoded cascade's 9 x 9 tables run in 1024-bin windows,
    # the direct 3 x 3 ones in one
    assert [e["windows"] for e in prov["estimators"]] == [4, 1]
    assert all(0.0 < e["table_mb"] <= 8.0 for e in prov["estimators"])


def test_run_byte_identical(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(_tiny_cfg()))
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        assert main(["run", "--config", str(cfgfile), "--out", str(outdir)]) == 0
        outs.append((outdir / "qfi_scan.csv").read_bytes())
    assert outs[0] == outs[1]


def test_seed_override_changes_samples(tmp_path):
    # detuned point: records are informative, so sampling enters the table
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(_tiny_cfg(
        model={"omega": 1.0, "delta": 1.0, "gamma": 1.0, "theta": 1.0})))
    byte_runs = []
    for seed in ("3", "4"):
        outdir = tmp_path / f"s{seed}"
        assert main(["run", "--config", str(cfgfile), "--seed", seed,
                     "--out", str(outdir)]) == 0
        byte_runs.append((outdir / "qfi_scan.csv").read_bytes())
    assert byte_runs[0] != byte_runs[1]


def test_run_rejects_invalid():
    cfg = ExperimentConfig.from_dict({"grid": {"dt": -1.0}})
    with pytest.raises(ConfigInvalid):
        run(cfg)


def test_result_bundle_csv_precision(tmp_path):
    b = ResultBundle(config={})
    b.add_table("t", ["x"], [[0.1 + 0.2]])
    text = b.csv_bytes("t").decode()
    assert text.splitlines()[1] == repr(0.1 + 0.2)  # full precision


_THREE_LEVEL = dict(
    preset="fig3_heisenberg",
    model={"kind": "three_level", "omega": 5.0, "delta": 0.0, "gamma": 1.0, "theta": 0.0},
    grid={"dt": 2e-3, "t_list": [0.5]}, estimation={"n_traj": 4})


def test_provenance_reports_qfi_engine():
    from cmsense.config import build_sensor
    from cmsense.qfi import qfi_pair
    cfg = ExperimentConfig.from_dict(_tiny_cfg(grid={"dt": 2e-3, "t_list": [3.0]}))
    bundle = run(cfg)
    env, glob = qfi_pair(build_sensor(cfg), 0.0, 3.0, dt=2e-3)
    (row,) = bundle.provenance["qfi"]
    assert row.pop("seconds") > 0.0  # the stage timer of the row's qfi_pair
    assert row == {
        "T": 3.0, "propagations": 9,
        "env": {"fd_step": env.fd_step, "fidelity_evals": len(env.fidelity_samples)},
        "global": {"fd_step": glob.fd_step, "fidelity_evals": len(glob.fidelity_samples)}}
    assert b"propagations" not in bundle.csv_bytes("qfi_scan")
    assert b"seconds" not in bundle.csv_bytes("qfi_scan")


def test_provenance_reports_mle_grid_replay():
    # each interrogation time's estimator entry times its likelihood-grid
    # replay and gives the share of records on the modal estimate; most
    # records here are empty and share one estimate, which warns
    bundle = run(ExperimentConfig.from_dict(_tiny_cfg(
        preset="fig2_mle", model={"omega": 1.0, "delta": 1.0, "gamma": 1.0, "theta": 1.0},
        grid={"dt": 2e-3, "t_list": [1.0, 2.0]},
        estimation={"n_traj": 8, "n_records": 8, "n_grid": 11})))
    est = bundle.provenance["estimators"]
    assert [e["label"] for e in est] == ["T=1.0", "T=2.0"]
    assert all(e["grid_s"] > 0.0 for e in est)
    assert all(e["tied_frac"] > 0.5 for e in est)
    warns = [d for d in bundle.provenance["diagnostics"] if "share one estimate" in d]
    assert [w.split(":")[:2] for w in warns] == [["warn", " T=1.0"], ["warn", " T=2.0"]]
    assert b"grid_s" not in bundle.csv_bytes("mle") and b"tied" not in bundle.csv_bytes("mle")


def test_scan_row_propagates_each_generalized_state_once(monkeypatch):
    # one three-level scan row: I_E and I_G share every generalized state,
    # half the propagations of two separate engines
    from cmsense import qfi
    from cmsense.config import build_sensor, grid_ends
    props = []
    evolve = qfi.evolve_generalized
    monkeypatch.setattr(qfi, "evolve_generalized",
                        lambda *a, **k: props.append(1) or evolve(*a, **k))
    cfg = ExperimentConfig.from_dict(_tiny_cfg(**_THREE_LEVEL))
    bundle = run(cfg)
    row = len(props)
    assert bundle.provenance["qfi"][0]["propagations"] == row
    props.clear()
    (t, horizon), = grid_ends(cfg)
    sensor = build_sensor(cfg, t_plateau=t)
    qfi.env_qfi(sensor, 0.0, horizon, dt=2e-3)
    qfi.global_qfi(sensor, 0.0, horizon, dt=2e-3)
    assert 2 * row == len(props) == 18


def test_imperfections_sweep_equals_its_runs_without_sharing(monkeypatch):
    # the ideal run draws each record's stream once for the whole grid of
    # settings; with sharing patched out every run draws its own, and the
    # CSV and the provenance (timers and draw counts dropped) are the same
    from cmsense import cascade
    cfg = _tiny_cfg(preset="fig4_imperfections",
                    model={"omega": 1.0, "delta": 1.0, "gamma": 1.0, "theta": 1.0},
                    grid={"dt": 2e-3, "t_list": [2.0]}, estimation={"n_traj": 24},
                    imperfections={"eta_list": [0.3, 0.65, 1.0], "gamma_list": [0.0, 0.1]})

    def untimed(bundle):
        prov = {k: v for k, v in bundle.provenance.items() if k != "generated_utc"}
        prov["estimators"] = [{k: v for k, v in e.items()
                               if not (k.endswith("_s") or k in ("seconds", "draws"))}
                              for e in prov["estimators"]]
        return bundle.csv_bytes("imperfections"), prov

    shared = run(ExperimentConfig.from_dict(cfg))
    draws = [e["draws"] for e in shared.provenance["estimators"]]
    assert draws == [24 * 1000] + [0] * 6
    monkeypatch.setattr(cascade, "_shared_draws", lambda top, seed: None)
    alone = run(ExperimentConfig.from_dict(cfg))
    assert [e["draws"] for e in alone.provenance["estimators"]] == [24 * 1000] * 7
    assert untimed(alone) == untimed(shared)
    assert len(shared.tables["imperfections"][1]) == 6
