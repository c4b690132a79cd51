"""Benchmark workloads: the `cmsense run` cells each one executes.

Every cell is a complete config (no preset defaults are relied on), so a
change to a preset cannot silently change what the benchmark measures.
The "full" size is what the benchmark times; "tiny" runs the same cells
shrunk so the self-test finishes in seconds.  The seed of a run is
written into every cell's `seed`.
"""

RESONANT = {"kind": "two_level", "omega": 1.0, "delta": 0.0, "gamma": 1.0, "theta": 0.0}
# fig4 detuned operating point (omega = delta = gamma, theta = 1): away from
# the theta = 0 null point, so likelihood grids do real work
DETUNED = {"kind": "two_level", "omega": 1.0, "delta": 1.0, "gamma": 1.0, "theta": 1.0}
THREE_LEVEL = {"kind": "three_level", "omega": 5.0, "delta": 0.0, "gamma": 1.0, "theta": 0.0}


def _cell(preset, model, dt, t_list, n_traj, threads=1, **extra):
    cfg = {
        "preset": preset,
        "model": dict(model),
        "grid": {"dt": dt, "t_list": list(t_list)},
        "estimation": {"n_traj": n_traj},
        "threads": threads,
    }
    for key, val in extra.items():
        cfg.setdefault(key, {}).update(val)
    return cfg


def _field(t_two, t_three, n_traj):
    return [
        ("qfi_two_level", _cell("custom", RESONANT, 2e-3, t_two, 0)),
        ("heisenberg", _cell("fig3_heisenberg", THREE_LEVEL, 2e-3, t_three, n_traj)),
    ]


def _counting(t_end):
    # threads = 2 with 512 records gives two 256-record chunks per call,
    # so the thread pool really runs on the mismatch cell
    return [
        ("mismatch", _cell("fig2_mismatch", RESONANT, 2e-3, [t_end], 512, threads=2,
                           mismatch={"values": [-4.0, 0.0, 4.0]})),
        ("imperfections", _cell("fig4_imperfections", DETUNED, 2e-3, [t_end], 256,
                                threads=2,
                                imperfections={"eta_list": [0.65],
                                                "gamma_list": [0.0, 0.1]})),
    ]


def _mle(t_list, n_records):
    return [
        ("mle", _cell("fig2_mle", DETUNED, 2e-3, t_list, n_records,
                      estimation={"n_records": n_records, "n_grid": 41})),
    ]


# T = 150 at dt = 2e-3 is 75 000 bins, above the library's 50 000-step
# segment-engine threshold; T = 5 stays on the step engine.  Tiny mle keeps
# one time on each side (T = 100 is exactly 50 000 bins).
CELLS = {
    "full": {
        "field": _field([10.0, 30.0], [4.0], 16),
        "counting": _counting(5.0),
        "mle": _mle([5.0, 150.0], 128),
    },
    "tiny": {
        "field": _field([1.0, 2.0], [0.5], 4),
        "counting": _counting(0.5),
        "mle": _mle([1.0, 100.0], 16),
    },
}

WHY = {
    "field": "QFI (two-level + time-dependent three-level), decoder synthesis over the "
             "pulse grid and 16-record Fisher runs: propagate/qfi/decoder/linalg bound",
    "counting": "mismatch sweep at the theta=0 null point and the loss/efficiency grid "
                "on 2 pool threads: step-engine sampling and replay, no QFI",
    "mle": "per-record MLE at the detuned point, 41 theta replays per record set, "
           "T=5 on the step engine and T=150 on the segment engine",
}

# the step/segment log-likelihood cross-check runs on this cell's cascade
ENGINE_CHECK_CELL = {"mle": "mle"}


def cells(workload, size, seed):
    """[(name, config dict)] for one run of a workload."""
    out = []
    for name, cfg in CELLS[size][workload]:
        cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.items()}
        cfg["seed"] = int(seed)
        out.append((name, cfg))
    return out
