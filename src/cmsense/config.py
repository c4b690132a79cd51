"""Experiment configuration: schema, presets, validation.

A config is one JSON document; all rates and times are in natural
units with the emission rate of the main transition set to 1.  The
presets reproduce the library's headline studies at desk scale; every
knob they set can be overridden in a custom config.
"""

import copy
import json
from dataclasses import asdict, dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .errors import ConfigInvalid, NonpositiveRate, format_excess
from .models import three_level_model, two_level_model
from .propagate import STEP_GUARD, TimeGrid

__all__ = [
    "ExperimentConfig",
    "PRESET_NAMES",
    "preset_config",
    "preset_summaries",
    "load_config",
    "validate",
    "build_sensor",
    "scan_horizon",
]

PRESET_NAMES = (
    "fig2_qfi_scan",
    "fig2_mle",
    "fig2_mismatch",
    "fig3_heisenberg",
    "fig4_imperfections",
    "custom",
)

_DEFAULTS = {
    "preset": "custom",
    "model": {
        "kind": "two_level",
        "omega": 1.0,
        "delta": 0.0,
        "gamma": 1.0,
        "theta": 0.0,
    },
    "grid": {"dt": 2e-3, "t_list": [20.0]},
    "estimation": {
        "fd_step": None,
        "theta_step": 1e-3,
        "n_traj": 2000,
        "n_records": 1000,
        "n_grid": 41,
        "grid_width": None,
    },
    "imperfections": {
        "gamma": 0.0,
        "gamma_dep": None,
        "eta": 1.0,
        "eta_list": None,
        "gamma_list": None,
    },
    "mismatch": {"values": None},
    "seed": 0,
    "threads": 1,
    "out": "results",
}


@dataclass(eq=False)
class ExperimentConfig:
    preset: str = "custom"
    model: dict = dc_field(default_factory=lambda: dict(_DEFAULTS["model"]))
    grid: dict = dc_field(default_factory=lambda: dict(_DEFAULTS["grid"]))
    estimation: dict = dc_field(default_factory=lambda: dict(_DEFAULTS["estimation"]))
    imperfections: dict = dc_field(default_factory=lambda: dict(_DEFAULTS["imperfections"]))
    mismatch: dict = dc_field(default_factory=lambda: dict(_DEFAULTS["mismatch"]))
    seed: int = 0
    threads: int = 1
    out: str = "results"

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigInvalid("top level: expected a JSON object")
        merged = copy.deepcopy(_DEFAULTS)
        for key, val in data.items():
            if key not in merged:
                raise ConfigInvalid(f"{key}: unknown field")
            if isinstance(merged[key], dict):
                if not isinstance(val, dict):
                    raise ConfigInvalid(f"{key}: expected an object")
                for sub, sval in val.items():
                    if sub not in merged[key]:
                        raise ConfigInvalid(f"{key}.{sub}: unknown field")
                    merged[key][sub] = sval
            else:
                merged[key] = val
        return cls(**merged)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def build_sensor(cfg: ExperimentConfig, t_plateau: Optional[float] = None):
    """Instantiate the sensor model described by the config.

    For the pulsed three-level model the plateau length must be given
    (it varies inside a scan).
    """
    m = cfg.model
    if m["kind"] == "two_level":
        return two_level_model(m["omega"], m["delta"], m["gamma"])
    if m["kind"] == "three_level":
        if t_plateau is None:
            t_plateau = float(cfg.grid["t_list"][0])
        return three_level_model(m["delta"], m["omega"], m["gamma"],
                                 T_plateau=t_plateau)
    raise ConfigInvalid(f"model.kind: unknown kind {m['kind']!r}")


def scan_horizon(cfg: ExperimentConfig, t_end) -> float:
    """End of the grid a scan runs at interrogation time t_end: the
    three-level pulse sequence is followed by 6/gamma of free decay."""
    three = cfg.model["kind"] == "three_level"
    return float(t_end) + (6.0 / cfg.model["gamma"] if three else 0.0)


def _model_norm_scale(cfg):
    """Max spectral norm of H over a few sample times, for the dt lint;
    raises the model's own error when the config builds none."""
    t_pl = float(cfg.grid["t_list"][0])
    sensor = build_sensor(cfg, t_plateau=t_pl)
    theta = float(cfg.model.get("theta", 0.0))
    if cfg.model["kind"] == "three_level":
        probe = [0.0, 0.5 * t_pl, t_pl + 1.0 / cfg.model["gamma"]]
    else:
        probe = [0.0]
    return max(float(np.linalg.norm(sensor.hamiltonian(t, theta), 2)) for t in probe)


def validate(cfg: ExperimentConfig) -> List[str]:
    """Schema checks plus physics lints.  Empty list means runnable.

    Entries are prefixed "error:" (blocks run) or "warn:".
    """
    diags = []
    if cfg.preset not in PRESET_NAMES:
        diags.append(f"error: preset: unknown preset {cfg.preset!r}")
    m = cfg.model
    if m.get("kind") not in ("two_level", "three_level"):
        diags.append(f"error: model.kind: unknown kind {m.get('kind')!r}")
    for key in ("omega", "gamma"):
        if not np.isfinite(m.get(key, np.nan)) or m.get(key, -1) < 0:
            diags.append(f"error: model.{key}: must be a nonnegative number")
    dt = cfg.grid.get("dt", 0.0)
    if not (np.isfinite(dt) and dt > 0):
        diags.append("error: grid.dt: must be positive")
    t_list = cfg.grid.get("t_list") or []
    if not t_list or any(t <= 0 for t in t_list):
        diags.append("error: grid.t_list: needs positive interrogation times")
    imp = cfg.imperfections
    eta = imp.get("eta", 1.0)
    if not (0.0 < eta <= 1.0):
        diags.append(f"error: imperfections.eta: {eta} outside (0, 1]")
    if eta == 0.0:
        diags.append("warn: imperfections.eta: zero-information detector")
    for key in ("gamma", "gamma_dep"):
        val = imp.get(key)
        if val is not None and val < 0:
            diags.append(f"error: imperfections.{key}: negative rate")
    est = cfg.estimation
    if est.get("n_traj", 0) < 0:
        diags.append("error: estimation.n_traj: negative")
    elif est.get("n_traj", 0) == 0 and cfg.preset in ("fig2_mismatch", "fig4_imperfections"):
        # these presets only estimate Fisher information from records
        diags.append(f"error: estimation.n_traj: 0, but {cfg.preset} needs records")
    if cfg.preset == "fig2_mle" and est.get("n_records", 0) < 2:
        diags.append("error: estimation.n_records: the variance needs at least 2 records")
    elif cfg.preset == "fig2_mle" and est.get("n_records", 0) < 1000:
        diags.append("warn: estimation.n_records: below 1000, variance estimate unstable")
    fd = est.get("fd_step")
    if fd is not None and not (1e-6 <= fd <= 1e-1):
        diags.append("warn: estimation.fd_step: outside the trusted window [1e-6, 1e-1]")
    if dt and dt > 0 and not any(d.startswith("error") for d in diags):
        try:
            scale = _model_norm_scale(cfg)
        except NonpositiveRate as exc:
            # gamma = 0 builds no model, so no dt lint and no horizon either
            diags.append(f"error: model.gamma: {exc}")
            scale = None
        if scale is not None and dt * scale > STEP_GUARD:
            diags.append(
                f"error: grid.dt: dt*|H| = {format_excess(dt * scale, STEP_GUARD)} "
                f"exceeds the {STEP_GUARD} step guard"
            )
        # a grid that is not a whole number of dt steps would stop the run
        for t in (cfg.grid["t_list"] if scale is not None else []):
            end = scan_horizon(cfg, t)
            try:
                TimeGrid(0.0, end, dt)
            except ValueError:
                diags.append(f"error: grid.t_list: the grid of T = {t:g} ends at {end:g}, "
                             f"not a multiple of dt = {dt:g}")
    if cfg.preset == "fig2_mismatch" and not (cfg.mismatch.get("values")):
        diags.append("error: mismatch.values: required for the mismatch preset")
    if cfg.threads < 1:
        diags.append("error: threads: must be >= 1")
    return diags


def _preset_dict(name):
    base = copy.deepcopy(_DEFAULTS)
    base["preset"] = name
    if name == "fig2_qfi_scan":
        base["grid"] = {"dt": 2e-3, "t_list": [10.0, 20.0, 40.0, 80.0]}
        base["estimation"]["n_traj"] = 2000
    elif name == "fig2_mle":
        base["grid"] = {"dt": 2e-3, "t_list": [150.0, 400.0, 850.0]}
        base["estimation"]["n_records"] = 1000
        base["estimation"]["n_traj"] = 1000
    elif name == "fig2_mismatch":
        base["grid"] = {"dt": 2e-3, "t_list": [20.0]}
        base["estimation"]["n_traj"] = 3000
        base["mismatch"]["values"] = [float(x) for x in np.linspace(-10, 10, 11)]
    elif name == "fig3_heisenberg":
        base["model"] = {"kind": "three_level", "omega": 5.0, "delta": 0.0,
                         "gamma": 1.0, "theta": 0.0}
        base["grid"] = {"dt": 1e-3, "t_list": [50.0, 120.0, 170.0]}
        base["estimation"]["n_traj"] = 1000
    elif name == "fig4_imperfections":
        # detuned operating point: omega = delta = gamma
        base["model"]["delta"] = 1.0
        base["model"]["theta"] = 1.0
        base["grid"] = {"dt": 2e-3, "t_list": [20.0]}
        base["estimation"]["n_traj"] = 2000
        base["imperfections"]["eta_list"] = [0.3, 0.65, 1.0]
        base["imperfections"]["gamma_list"] = [0.0, 0.1, 0.2]
    elif name != "custom":
        raise ConfigInvalid(f"preset: unknown preset {name!r}")
    return base


def preset_config(name) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_preset_dict(name))


def preset_summaries():
    return {
        "fig2_qfi_scan": "two-level emission QFI and retrieved FI versus interrogation time",
        "fig2_mle": "repeated-interrogation MLE variance versus Fisher information",
        "fig2_mismatch": "retrieved FI versus decoder detuning mismatch",
        "fig3_heisenberg": "pulsed three-level QFI scaling with plateau length",
        "fig4_imperfections": "retrieved FI over the loss/efficiency grid",
        "custom": "user-specified settings, QFI-only when n_traj = 0",
    }
