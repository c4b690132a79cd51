import hashlib
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
    # nor the lists of the preset table
    preset_config("fig2_mle").grid["t_list"].append(5.0)
    assert preset_config("fig2_mle").grid["t_list"] == [150.0, 400.0, 850.0]


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


@pytest.mark.parametrize("data", [
    # the decoder of the mismatch value 30 loads the cascade: 0.061
    {"preset": "fig2_mismatch", "grid": {"dt": 0.002, "t_list": [0.2]},
     "estimation": {"n_traj": 4}, "mismatch": {"values": [30.0]}},
    # the likelihood grid's end theta = -2 loads the cascade: 0.0501
    {"preset": "fig2_mle", "model": {"omega": 24.0}, "grid": {"dt": 0.002, "t_list": [0.2]},
     "estimation": {"n_traj": 4, "n_records": 4}},
    # the loss and dephasing channels of the rate 10 load the cascade: 0.084
    {"preset": "fig4_imperfections", "grid": {"dt": 0.002, "t_list": [0.2]},
     "estimation": {"n_traj": 4}, "imperfections": {"gamma_list": [0.0, 10.0]}},
], ids=["mismatch", "mle", "imperfections"])
def test_step_lint_agrees_with_the_run_guard_of_a_two_level_cascade(monkeypatch, data):
    # the sensor alone passes the guard; its cascade into a two-level decoder
    # does not, and the lint says what the unlinted run stops with
    from cmsense import cli
    cfg = ExperimentConfig.from_dict(data)
    linted = [d for d in validate(cfg) if d.startswith("error")]
    monkeypatch.setattr(cli, "validate", lambda cfg: [])
    with pytest.raises(StepTooLarge) as guarded:
        cli.run(cfg)
    assert linted == [f"error: grid.dt: step guard: {guarded.value}"]


def test_validate_builds_no_kraus_table(monkeypatch):
    # the step lint guards the operator stacks of the sensor and of its
    # two-level cascades, not their Kraus tables
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


# SHA-256 of json.dumps(preset_config(name).to_dict(), sort_keys=True),
# frozen before the presets moved into one table
PRESET_DIGESTS = {
    "fig2_qfi_scan": "7482803336974922041df233f63ce5893caa61c45af6a10d97bae4a37e1054a1",
    "fig2_mle": "886375a380852216afaf963ad5afb99a4fa434e5510e21455b5b235ea0db7a9a",
    "fig2_mismatch": "513cdd03d2986345006eb48bd0b496965af8c3de698639f8c79305e6a0508888",
    "fig3_heisenberg": "1c8d8320f6f142950a3b41f91ba4cf339fe6bc6e929138153e2576b5b71cebce",
    "fig4_imperfections": "fe460b8b901b6ac030c46a91367c59bc5ef9b8c123272cb820ac2cfaad30a732",
    "custom": "95fba619a0fa83de42ace946e46fb3f37cae852a60afcb3a24810e2937680080",
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_config_bytes_frozen(name):
    text = json.dumps(preset_config(name).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_DIGESTS[name]


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
