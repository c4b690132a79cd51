import json

import numpy as np
import pytest

from cmsense.config import (ExperimentConfig, PRESET_NAMES, build_sensor,
                            load_config, preset_config, preset_summaries,
                            validate)
from cmsense.errors import ConfigInvalid


def test_default_round_trip():
    cfg = ExperimentConfig()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert validate(cfg) == []


def test_unknown_fields_rejected():
    with pytest.raises(ConfigInvalid, match="unknown field"):
        ExperimentConfig.from_dict({"typo": 1})
    with pytest.raises(ConfigInvalid, match="model.typo"):
        ExperimentConfig.from_dict({"model": {"typo": 1}})
    with pytest.raises(ConfigInvalid, match="expected"):
        ExperimentConfig.from_dict([1, 2])
    with pytest.raises(ConfigInvalid, match="expected"):
        ExperimentConfig.from_dict({"model": 3})


@pytest.mark.parametrize("patch,needle", [
    ({"preset": "fig9"}, "unknown preset"),
    ({"model": {"kind": "four_level"}}, "model.kind"),
    ({"model": {"omega": -1.0}}, "model.omega"),
    ({"grid": {"dt": 0.0}}, "grid.dt"),
    ({"grid": {"t_list": []}}, "grid.t_list"),
    ({"grid": {"t_list": [-5.0]}}, "grid.t_list"),
    ({"imperfections": {"eta": 1.5}}, "imperfections.eta"),
    ({"imperfections": {"gamma": -0.1}}, "imperfections.gamma"),
    ({"threads": 0}, "threads"),
    # 1.0 is not a whole number of 3e-4 steps: TimeGrid would refuse it mid-run
    ({"grid": {"dt": 3e-4, "t_list": [1.0]}, "estimation": {"n_traj": 0}}, "grid.t_list"),
    # T = 2 is on the 1e-3 grid, the three-level horizon T + 6/0.7 is not
    ({"model": {"kind": "three_level", "omega": 5.0, "gamma": 0.7},
      "grid": {"dt": 1e-3, "t_list": [2.0]}}, "ends at 10.5714"),
])
def test_validate_error_catalog(patch, needle):
    cfg = ExperimentConfig.from_dict(patch)
    diags = validate(cfg)
    assert any(d.startswith("error") and needle in d for d in diags), diags


def test_validate_step_guard():
    cfg = ExperimentConfig.from_dict({"model": {"omega": 60.0}})
    diags = validate(cfg)
    assert any("step guard" in d for d in diags)


def test_validate_warnings():
    cfg = ExperimentConfig.from_dict({"estimation": {"fd_step": 0.5}})
    diags = validate(cfg)
    assert any(d.startswith("warn") and "fd_step" in d for d in diags)
    assert not any(d.startswith("error") for d in diags)

    cfg = preset_config("fig2_mle")
    cfg.estimation["n_records"] = 50
    assert any("n_records" in d for d in validate(cfg))


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
