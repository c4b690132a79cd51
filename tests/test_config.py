import json

import numpy as np
import pytest

from cmsense.config import (ExperimentConfig, PRESET_NAMES, build_sensor, grid_ends,
                            load_config, preset_config, preset_summaries,
                            validate)
from cmsense.errors import ConfigInvalid, StepTooLarge
from cmsense.propagate import TimeGrid, cascade_generators, step_matrices


def test_default_round_trip():
    cfg = ExperimentConfig()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert validate(cfg) == []


def test_default_lists_are_not_shared():
    ExperimentConfig().grid["t_list"].append(5.0)
    ExperimentConfig().imperfections["eta_list"].append(0.5)
    assert ExperimentConfig().grid["t_list"] == [20.0]
    assert ExperimentConfig.from_dict({}).imperfections["eta_list"] == [1.0]


def test_unknown_fields_rejected():
    with pytest.raises(ConfigInvalid, match="unknown field"):
        ExperimentConfig.from_dict({"typo": 1})
    with pytest.raises(ConfigInvalid, match="model.typo"):
        ExperimentConfig.from_dict({"model": {"typo": 1}})
    with pytest.raises(ConfigInvalid, match="expected"):
        ExperimentConfig.from_dict([1, 2])
    with pytest.raises(ConfigInvalid, match="expected"):
        ExperimentConfig.from_dict({"model": 3})
    # the keys that every run left at one value are gone
    for section, key in [("estimation", "fd_step"), ("estimation", "theta_step"),
                         ("estimation", "grid_width"), ("imperfections", "gamma_dep"),
                         ("imperfections", "eta"), ("imperfections", "gamma")]:
        with pytest.raises(ConfigInvalid, match=f"{section}.{key}: unknown field"):
            ExperimentConfig.from_dict({section: {key: 1.0}})


@pytest.mark.parametrize("patch,needle", [
    ({"preset": "fig9"}, "unknown preset"),
    ({"model": {"kind": "four_level"}}, "model.kind"),
    ({"model": {"omega": -1.0}}, "model.omega"),
    ({"grid": {"dt": 0.0}}, "grid.dt"),
    ({"grid": {"t_list": []}}, "grid.t_list"),
    ({"grid": {"t_list": [-5.0]}}, "grid.t_list"),
    # every entry of the imperfection grid, as Imperfections checks it
    ({"preset": "fig4_imperfections", "imperfections": {"eta_list": [1.5]}},
     "imperfections.eta"),
    ({"preset": "fig4_imperfections", "imperfections": {"gamma_list": [-0.1]}},
     "imperfections.gamma"),
    ({"threads": 0}, "threads"),
    # 1.0 is not a whole number of 3e-4 steps: TimeGrid would refuse it mid-run
    ({"grid": {"dt": 3e-4, "t_list": [1.0]}, "estimation": {"n_traj": 0}}, "grid.t_list"),
    # T = 2 is on the 1e-3 grid, the three-level horizon T + 6/0.7 is not
    ({"model": {"kind": "three_level", "omega": 5.0, "gamma": 0.7},
      "grid": {"dt": 1e-3, "t_list": [2.0]}}, "ends at 10.5714"),
    # presets that only estimate from records cannot run without any
    ({"preset": "fig2_mismatch", "mismatch": {"values": [0.0]},
      "estimation": {"n_traj": 0}}, "estimation.n_traj"),
    ({"preset": "fig4_imperfections", "estimation": {"n_traj": 0}}, "estimation.n_traj"),
    # a variance study has no variance below two records
    ({"preset": "fig2_mle", "estimation": {"n_records": -5}}, "estimation.n_records"),
    ({"preset": "fig2_mle", "estimation": {"n_records": 0}}, "estimation.n_records"),
    ({"preset": "fig2_mle", "estimation": {"n_records": 1}}, "estimation.n_records"),
    ({"imperfections": {"eta_list": []}}, "imperfections.eta_list"),
    # malformed values are diagnostics, not exceptions
    ({"grid": {"t_list": ["a"]}}, "grid.t_list"),
    ({"grid": {"t_list": 5}}, "grid.t_list"),
    ({"grid": {"dt": "x"}}, "grid.dt"),
    ({"model": {"theta": "q"}}, "model.theta"),
    ({"estimation": {"n_traj": "5"}}, "estimation.n_traj"),
    ({"threads": "2"}, "threads"),
    ({"estimation": {"n_grid": 2}}, "estimation.n_grid"),
    ({"seed": -1}, "seed"),
    ({"preset": "fig2_mismatch", "mismatch": {"values": ["a"]}}, "mismatch.values"),
    # J^dag J loads the step too: 30 * 2e-3 = 0.06 > 0.05
    ({"model": {"gamma": 30.0}}, "step guard"),
    # these presets cascade a two-level decoder: the sensor must be two-level
    ({"preset": "fig2_mle", "model": {"kind": "three_level", "omega": 5.0}},
     "model.kind: fig2_mle"),
    ({"preset": "fig4_imperfections", "model": {"kind": "three_level", "omega": 5.0}},
     "model.kind: fig4_imperfections"),
    ({"preset": "fig2_mismatch", "model": {"kind": "three_level", "omega": 5.0},
      "mismatch": {"values": [0.0]}}, "model.kind: fig2_mismatch"),
])
def test_validate_error_catalog(patch, needle):
    cfg = ExperimentConfig.from_dict(patch)
    diags = validate(cfg)
    assert any(d.startswith("error") and needle in d for d in diags), diags


def test_validate_step_guard():
    cfg = ExperimentConfig.from_dict({"model": {"omega": 60.0}})
    diags = validate(cfg)
    assert any("step guard" in d for d in diags)


@pytest.mark.parametrize("dt", [4e-3, 2e-3])
def test_step_lint_agrees_with_the_run_guard_at_the_pi_pulse(dt):
    # the pi pulse puts 0.5 * pi / (0.05 sqrt(2 pi)) = 12.5 into H at
    # t = T + 1: a load of 0.0501 at dt = 4e-3, above the 0.05 guard, and
    # half that at dt = 2e-3
    cfg = ExperimentConfig.from_dict({"model": {"kind": "three_level", "omega": 5.0},
                                      "grid": {"dt": dt, "t_list": [2.0]},
                                      "estimation": {"n_traj": 0}})
    linted = [d for d in validate(cfg) if d.startswith("error")]
    assert all(d.startswith("error: grid.dt: ") for d in linted)
    (t, end), = grid_ends(cfg)
    try:
        step_matrices(cascade_generators(build_sensor(cfg, t_plateau=t)), 0.0,
                      TimeGrid(0.0, end, dt))
        guarded = False
    except StepTooLarge:
        guarded = True
    assert bool(linted) is guarded is (dt == 4e-3)


def test_validate_builds_no_kraus_table(monkeypatch):
    # the step lint guards the sensor's operator stacks, not its Kraus tables
    from cmsense import propagate

    def forbidden(*args, **kwargs):
        raise AssertionError("validate built a Kraus table")
    monkeypatch.setattr(propagate, "_kraus_tables", forbidden)
    for name in PRESET_NAMES:
        validate(preset_config(name))


def test_validate_warnings():
    cfg = preset_config("fig2_mle")
    for n in (2, 50, 999):
        cfg.estimation["n_records"] = n
        diags = validate(cfg)
        assert any(d.startswith("warn") and "n_records" in d for d in diags), diags
        assert not any(d.startswith("error") for d in diags), diags


def test_mismatch_preset_requires_values():
    cfg = preset_config("fig2_mismatch")
    cfg.mismatch["values"] = None
    assert any("mismatch.values" in d for d in validate(cfg))


def test_preset_names_frozen():
    assert PRESET_NAMES == ("fig2_qfi_scan", "fig2_mle", "fig2_mismatch",
                            "fig3_heisenberg", "fig4_imperfections", "custom")
    assert set(preset_summaries()) == set(PRESET_NAMES)


def test_preset_values():
    scan = preset_config("fig2_qfi_scan")
    assert scan.grid["t_list"] == [10.0, 20.0, 40.0, 80.0]

    mle = preset_config("fig2_mle")
    assert mle.grid["t_list"] == [150.0, 400.0, 850.0]
    assert mle.estimation["n_records"] == 1000

    mis = preset_config("fig2_mismatch")
    np.testing.assert_allclose(mis.mismatch["values"], np.linspace(-10, 10, 11))

    h = preset_config("fig3_heisenberg")
    assert h.model["kind"] == "three_level"
    assert h.model["omega"] == 5.0
    assert h.grid["dt"] == 1e-3

    imp = preset_config("fig4_imperfections")
    assert imp.model["theta"] == 1.0
    assert imp.imperfections["eta_list"] == [0.3, 0.65, 1.0]
    assert imp.imperfections["gamma_list"] == [0.0, 0.1, 0.2]


def test_all_presets_validate_clean():
    for name in PRESET_NAMES:
        cfg = preset_config(name)
        errs = [d for d in validate(cfg) if d.startswith("error")]
        assert errs == [], (name, errs)


@pytest.mark.parametrize("name", ["fig2_qfi_scan", "fig2_mle", "fig3_heisenberg", "custom"])
def test_zero_records_stay_valid_where_fisher_is_optional(name):
    # a scan runs QFI-only and the MLE takes its default Fisher count
    cfg = preset_config(name)
    cfg.estimation["n_traj"] = 0
    assert not [d for d in validate(cfg) if d.startswith("error")]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_one_record_is_rejected_wherever_fisher_runs(name):
    # every preset runs a Fisher estimate from n_traj records when n_traj > 0,
    # and one record has no spread to give its error
    cfg = preset_config(name)
    cfg.estimation["n_traj"] = 1
    errs = [d for d in validate(cfg) if d.startswith("error")]
    assert errs == ["error: estimation.n_traj: 1, but a Fisher estimate's error "
                    "needs at least 2 records"], errs
    cfg.estimation["n_traj"] = 2
    assert not [d for d in validate(cfg) if d.startswith("error")]


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "model": {"omega": 2.0}}))
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.model["omega"] == 2.0
    assert cfg.model["delta"] == 0.0  # untouched default

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_config(bad)
    with pytest.raises(ConfigInvalid):
        load_config(tmp_path / "missing.json")


def test_build_sensor():
    cfg = ExperimentConfig()
    assert build_sensor(cfg).dim == 2

    cfg = preset_config("fig3_heisenberg")
    sensor = build_sensor(cfg, t_plateau=50.0)
    assert sensor.dim == 3
    # falls back to the first interrogation time
    assert build_sensor(cfg).dim == 3

    cfg = ExperimentConfig.from_dict({"model": {"kind": "four_level"}})
    with pytest.raises(ConfigInvalid):
        build_sensor(cfg)
