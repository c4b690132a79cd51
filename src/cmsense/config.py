"""Experiment configuration: schema, presets, validation.

A config is one JSON document; all rates and times are in natural
units with the emission rate of the main transition set to 1.  The
presets reproduce the library's headline studies at desk scale; each is
one entry of ``_PRESETS`` (its summary, pipeline, CSV table name and the
keys it sets), and every key it sets can be overridden in a custom
config.  The schema holds
only keys that change a run.  ``validate`` checks the type and range of
every key from one table, ``_CHECKS``, then what involves several keys.
"""

import copy
import json
import math
from dataclasses import asdict, dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .decoder import two_level_decoder
from .errors import ConfigInvalid, StepTooLarge
from .estimate import _GRID_WIDTH_CAP
from .models import operator_stacks, three_level_model, two_level_model
from .propagate import (STEP_GUARD, Imperfections, TimeGrid, _bin_times, _decay,
                        _decoder_stacks, _guard, _joint, _static, _two_level_channels)

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


@dataclass(frozen=True)
class _Preset:
    summary: str
    pipeline: str  # "scan", "mle", "mismatch" or "imperfections"
    table: str  # the name of the CSV table it writes
    keys: dict = dc_field(default_factory=dict)  # what it sets over _DEFAULTS


# every preset, in the order `cmsense presets` lists them
_PRESETS = {
    "fig2_qfi_scan": _Preset(
        "two-level emission QFI and retrieved FI versus interrogation time",
        "scan", "qfi_scan", {"grid": {"t_list": [10.0, 20.0, 40.0, 80.0]}}),
    "fig2_mle": _Preset(
        "repeated-interrogation MLE variance versus Fisher information",
        "mle", "mle", {"grid": {"t_list": [150.0, 400.0, 850.0]},
                       "estimation": {"n_traj": 1000}}),
    "fig2_mismatch": _Preset(
        "retrieved FI versus decoder detuning mismatch",
        "mismatch", "mismatch", {"estimation": {"n_traj": 3000},
                                 "mismatch": {"values": [float(x) for x in range(-10, 11, 2)]}}),
    "fig3_heisenberg": _Preset(
        "pulsed three-level QFI scaling with plateau length",
        "scan", "heisenberg", {"model": {"kind": "three_level", "omega": 5.0},
                               "grid": {"dt": 1e-3, "t_list": [50.0, 120.0, 170.0]},
                               "estimation": {"n_traj": 1000}}),
    # detuned operating point: omega = delta = gamma
    "fig4_imperfections": _Preset(
        "retrieved FI over the loss/efficiency grid",
        "imperfections", "imperfections",
        {"model": {"delta": 1.0, "theta": 1.0},
         "imperfections": {"eta_list": [0.3, 0.65, 1.0], "gamma_list": [0.0, 0.1, 0.2]}}),
    "custom": _Preset("user-specified settings, QFI-only when n_traj = 0", "scan", "qfi_scan"),
}
PRESET_NAMES = tuple(_PRESETS)


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


def _matched_two_level(cfg: ExperimentConfig, theta):
    """The two-level decoder matched to the sensor of ``cfg`` at ``theta``."""
    m = cfg.model
    return two_level_decoder(m["omega"], -theta, m["gamma"])


def grid_ends(cfg: ExperimentConfig):
    """(T, end) of each grid [0, end] a run of ``cfg`` builds, in order.
    A scan runs every T of t_list, the three-level pulse sequence followed
    by 6/gamma of free decay; an MLE study runs every T, and the mismatch
    and imperfection sweeps the first T alone, each on [0, T]."""
    ts = [float(t) for t in cfg.grid["t_list"]]
    pipeline = _PRESETS[cfg.preset].pipeline
    if pipeline == "scan":
        tail = 6.0 / cfg.model["gamma"] if cfg.model["kind"] == "three_level" else 0.0
        return [(t, t + tail) for t in ts]
    return [(t, t) for t in (ts if pipeline == "mle" else ts[:1])]


def _two_level_cascades(cfg, theta):
    """(decoder, θ values, undetected channels) of each cascade of the
    two-level sensor into a two-level decoder that a run of ``cfg``
    builds: the decoder of each mismatch value at θ, else the matched
    decoder of a decoded study or of a scan that takes records.  An MLE
    study also replays its likelihood grid, of half-width at most the
    cap: the load is convex in θ, so θ ± the cap bound every grid point.
    An imperfection sweep adds the channels of its largest loss rate,
    the largest load."""
    pipeline = _PRESETS[cfg.preset].pipeline
    if cfg.model["kind"] != "two_level" or (pipeline == "scan"
                                            and cfg.estimation["n_traj"] == 0):
        return []
    m = cfg.model
    if pipeline == "mismatch":  # as ``mismatch_sweep`` offsets the matched decoder
        return [(two_level_decoder(m["omega"], dm - theta, m["gamma"]), [theta], [])
                for dm in cfg.mismatch["values"] or ()]
    thetas, extra = [theta], []
    if pipeline == "mle":
        thetas += [theta - _GRID_WIDTH_CAP, theta + _GRID_WIDTH_CAP]
    if pipeline == "imperfections":
        gamma = float(max(cfg.imperfections["gamma_list"]))
        extra = _two_level_channels(2, 2, Imperfections(gamma=gamma))
    return [(_matched_two_level(cfg, theta), thetas, extra)]


def _step_error(cfg, t, grid):
    """The Kraus table guard (``propagate._guard``) on the operator stacks
    of the sensor the run builds for T = t and of its cascade into each
    two-level decoder the run builds, over every bin of its ``grid`` (a
    synthesized three-level decoder is not linted): the diagnostic, or None."""
    theta = float(cfg.model["theta"])
    sensor = build_sensor(cfg, t_plateau=t if _PRESETS[cfg.preset].pipeline == "scan" else None)
    ts = _bin_times(grid, not sensor.time_dependent)
    try:
        for dec, thetas, extra in [(None, [theta], [])] + _two_level_cascades(cfg, theta):
            h, j = operator_stacks(sensor, thetas, ts)
            if dec is not None:
                n, dim = len(h), h.shape[-1] * dec.dim
                h, j = _joint(h, j, _decoder_stacks(dec, grid, n),
                              np.empty((n, dim, dim), dtype=complex))
            _guard(h, _decay(j[:1] if _static(j) else j, extra), grid.dt, STEP_GUARD,
                   np.tile(ts, len(thetas)))
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
    pipeline = _PRESETS[cfg.preset].pipeline
    if pipeline != "scan" and cfg.model["kind"] != "two_level":
        diags.append(f"error: model.kind: {cfg.preset} decodes with a two-level decoder "
                     f"and needs the two_level model, got {cfg.model['kind']!r}")
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
    if est["n_traj"] == 0 and pipeline in ("mismatch", "imperfections"):
        # these sweeps only estimate Fisher information from records
        diags.append(f"error: estimation.n_traj: 0, but {cfg.preset} needs records")
    if est["n_traj"] == 1:
        # every preset that takes records runs a Fisher estimate with n_traj of them
        diags.append("error: estimation.n_traj: 1, but a Fisher estimate's error "
                     "needs at least 2 records")
    if pipeline == "mle" and est["n_records"] < 2:
        diags.append("error: estimation.n_records: the variance needs at least 2 records")
    elif pipeline == "mle" and est["n_records"] < 1000:
        diags.append("warn: estimation.n_records: below 1000, variance estimate unstable")
    if pipeline == "mismatch" and cfg.mismatch["values"] is None:
        diags.append("error: mismatch.values: required for the mismatch preset")
    return diags


def preset_config(name) -> ExperimentConfig:
    if name not in _PRESETS:
        raise ConfigInvalid(f"preset: unknown preset {name!r}")
    # a copy: the config's lists are its own, not the table's
    return ExperimentConfig.from_dict(copy.deepcopy({"preset": name, **_PRESETS[name].keys}))


def preset_summaries():
    return {name: p.summary for name, p in _PRESETS.items()}
