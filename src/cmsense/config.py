"""Experiment configuration: schema, presets, validation.

A config is one JSON document; all rates and times are in natural
units with the emission rate of the main transition set to 1.  The
presets reproduce the library's headline studies at desk scale; every
key they set can be overridden in a custom config.  The schema holds
only keys that change a run.  ``validate`` checks the type and range of
every key from one table, ``_CHECKS``, then what involves several keys.
"""

import copy
import json
import math
from dataclasses import asdict, dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .errors import ConfigInvalid, StepTooLarge
from .linalg import dagger
from .models import operator_stacks, three_level_model, two_level_model
from .propagate import STEP_GUARD, TimeGrid, _bin_times, _guard, _static

__all__ = [
    "ExperimentConfig",
    "PRESET_NAMES",
    "preset_config",
    "preset_summaries",
    "load_config",
    "validate",
    "build_sensor",
    "grid_ends",
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
    "estimation": {"n_traj": 2000, "n_records": 1000, "n_grid": 41},
    "imperfections": {"eta_list": [1.0], "gamma_list": [0.0]},
    "mismatch": {"values": None},
    "seed": 0,
    "threads": 1,
    "out": "results",
}


@dataclass(eq=False)
class ExperimentConfig:
    preset: str = "custom"
    model: dict = dc_field(default_factory=lambda: copy.deepcopy(_DEFAULTS["model"]))
    grid: dict = dc_field(default_factory=lambda: copy.deepcopy(_DEFAULTS["grid"]))
    estimation: dict = dc_field(default_factory=lambda: copy.deepcopy(_DEFAULTS["estimation"]))
    imperfections: dict = dc_field(
        default_factory=lambda: copy.deepcopy(_DEFAULTS["imperfections"]))
    mismatch: dict = dc_field(default_factory=lambda: copy.deepcopy(_DEFAULTS["mismatch"]))
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


# presets that run a scan: one grid per interrogation time of t_list
_SCANS = ("fig2_qfi_scan", "fig3_heisenberg", "custom")


def grid_ends(cfg: ExperimentConfig):
    """(T, end) of each grid [0, end] a run of ``cfg`` builds, in order.
    A scan runs every T of t_list, the three-level pulse sequence followed
    by 6/gamma of free decay; fig2_mle runs every T, and fig2_mismatch and
    fig4_imperfections the first T alone, each on [0, T]."""
    ts = [float(t) for t in cfg.grid["t_list"]]
    if cfg.preset in _SCANS:
        tail = 6.0 / cfg.model["gamma"] if cfg.model["kind"] == "three_level" else 0.0
        return [(t, t + tail) for t in ts]
    return [(t, t) for t in (ts if cfg.preset == "fig2_mle" else ts[:1])]


def _step_error(cfg, t, grid):
    """The Kraus table guard (``propagate._guard``) on the stacks of the
    sensor the run builds for T = t, over every bin of its ``grid`` (the
    cascade with a decoder is not linted): the diagnostic, or None."""
    sensor = build_sensor(cfg, t_plateau=t if cfg.preset in _SCANS else None)
    ts = _bin_times(grid, not sensor.time_dependent)
    h, j = operator_stacks(sensor, float(cfg.model["theta"]), ts)
    j = j[:1] if _static(j) else j
    try:
        _guard(h, dagger(j) @ j, grid.dt, STEP_GUARD, ts)
    except StepTooLarge as exc:
        return f"error: grid.dt: step guard: {exc}"
    return None


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _int_at_least(lo):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _numbers(ok=lambda x: True):
    """A check of a nonempty list of numbers that each pass ``ok``."""
    return lambda v: isinstance(v, list) and len(v) > 0 and all(
        _number(x) and ok(x) for x in v)


# (key, check, message) for every key of the schema; "a.b" is key b of
# the section a.  The message may name the value as {v!r}.
_CHECKS = (
    ("preset", lambda v: v in PRESET_NAMES, "unknown preset {v!r}"),
    ("model.kind", lambda v: v in ("two_level", "three_level"), "unknown kind {v!r}"),
    ("model.omega", lambda v: _number(v) and v >= 0, "must be a nonnegative number"),
    ("model.delta", _number, "must be a number"),
    # the words of the models' own error: gamma = 0 builds no model
    ("model.gamma", lambda v: _number(v) and v > 0, "gamma must be positive, got {v!r}"),
    ("model.theta", _number, "must be a number"),
    ("grid.dt", lambda v: _number(v) and v > 0, "must be a positive number"),
    ("grid.t_list", _numbers(lambda t: t > 0), "needs a list of positive interrogation times"),
    ("estimation.n_traj", _int_at_least(0), "must be an integer >= 0"),
    ("estimation.n_records", _int_at_least(0), "must be an integer >= 0"),
    ("estimation.n_grid", _int_at_least(3), "must be an integer >= 3 (parabolic refinement)"),
    ("imperfections.eta_list", _numbers(lambda e: 0 < e <= 1),
     "needs a list of detector efficiencies in (0, 1], got {v!r}"),
    ("imperfections.gamma_list", _numbers(lambda g: g >= 0),
     "needs a list of nonnegative rates, got {v!r}"),
    ("mismatch.values", lambda v: v is None or _numbers()(v), "must be null or a list of numbers"),
    ("seed", _int_at_least(0), "must be an integer >= 0"),
    ("threads", _int_at_least(1), "must be an integer >= 1"),
    ("out", lambda v: isinstance(v, str) and v != "", "must be a nonempty path"),
)


def _value(cfg, key):
    section, _, sub = key.partition(".")
    val = getattr(cfg, section)
    return val.get(sub) if sub else val


def validate(cfg: ExperimentConfig) -> List[str]:
    """Schema checks plus physics lints.  Empty list means runnable.

    Entries are prefixed "error:" (blocks run) or "warn:".  The checks
    across keys run only on a config whose every key passes ``_CHECKS``.
    """
    diags = [f"error: {key}: " + msg.format(v=_value(cfg, key))
             for key, ok, msg in _CHECKS if not ok(_value(cfg, key))]
    if diags:
        return diags
    dt, est = cfg.grid["dt"], cfg.estimation
    step = None
    for t, end in grid_ends(cfg):
        try:
            grid = TimeGrid(0.0, end, dt)
        except ValueError:
            # a grid that is not a whole number of dt steps would stop the run
            diags.append(f"error: grid.t_list: the grid of T = {t:g} ends at {end:g}, "
                         f"not a multiple of dt = {dt:g}")
            continue
        if step is None:  # the first grid that trips the guard
            step = _step_error(cfg, t, grid)
    if step:
        diags.append(step)
    if est["n_traj"] == 0 and cfg.preset in ("fig2_mismatch", "fig4_imperfections"):
        # these presets only estimate Fisher information from records
        diags.append(f"error: estimation.n_traj: 0, but {cfg.preset} needs records")
    if cfg.preset == "fig2_mle" and est["n_records"] < 2:
        diags.append("error: estimation.n_records: the variance needs at least 2 records")
    elif cfg.preset == "fig2_mle" and est["n_records"] < 1000:
        diags.append("warn: estimation.n_records: below 1000, variance estimate unstable")
    if cfg.preset == "fig2_mismatch" and cfg.mismatch["values"] is None:
        diags.append("error: mismatch.values: required for the mismatch preset")
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
