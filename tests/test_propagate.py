import numpy as np
import pytest

from cmsense import TimeGrid, two_level_model, three_level_model
from cmsense._engine import StepOps
from cmsense.errors import StepTooLarge, TraceDrift
from cmsense.models import SensorModel, operator_stacks
from cmsense.propagate import (STEP_GUARD, _kraus_tables, evolve_density, evolve_generalized,
                               pair_table, propagate_linear, transfer)
from conftest import modulated_jump_sensor


def _kraus_reference(m, t, theta, dt):
    """The first-order pair a0 = 1 - i H dt - J^dag J dt / 2, a1 = sqrt(dt) J."""
    h, j = m.hamiltonian(t, theta), m.jump(t, theta)
    return np.eye(m.dim) - 1j * dt * h - 0.5 * dt * (j.conj().T @ j), np.sqrt(dt) * j


def _first_pair(m, theta, dt, max_step=0.05):
    tab = pair_table(m, theta, TimeGrid(0.0, dt, dt), max_step)
    return tab.a0[0], tab.a1[0]


def test_time_grid_counts_steps():
    g = TimeGrid(0.0, 20.0, 2e-3)
    assert g.n_steps == 10000
    assert len(g.times) == 10001
    assert g.times[-1] == pytest.approx(20.0)
    assert len(g.left_times) == 10000
    assert g.left_times[-1] == pytest.approx(20.0 - 2e-3)


def test_time_grid_rejects_ragged_span():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 3e-4)


def test_pair_table_first_order_structure():
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    dt = 1e-3
    a0, a1 = _first_pair(m, 0.0, dt)
    a0_ref, a1_ref = _kraus_reference(m, 0.0, 0.0, dt)
    assert np.abs(a0 - a0_ref).max() < 1e-15
    assert np.abs(a1 - a1_ref).max() < 1e-15


@pytest.mark.parametrize("dt", [2e-3, 1e-3, 5e-4])
def test_completeness_defect_quadratic_in_dt(dt):
    m = two_level_model(omega=1.0, delta=0.3, gamma=1.0)
    a0, a1 = _first_pair(m, 0.3, dt)
    # defect = |A0^dag A0 + A1^dag A1 - 1| = O(dt^2)
    defect = np.abs(a0.conj().T @ a0 + a1.conj().T @ a1 - np.eye(2)).max()
    assert 0.1 * dt**2 < defect < 2.0 * dt**2


def test_step_guard_triggers():
    m = two_level_model(omega=60.0, delta=0.0, gamma=1.0)
    with pytest.raises(StepTooLarge):
        _first_pair(m, 0.0, 2e-3)


def test_step_guard_names_first_offending_bin():
    # the pi pulse (centre t=5) pushes dt*|H| over the guard at dt=5e-3;
    # both table builders must name the first bin whose exact load exceeds it
    from cmsense.cascade import cascade_generators, step_matrices
    m = three_level_model(0.0, 5.0, 1.0, T_plateau=4.0)
    grid = TimeGrid(0.0, 10.0, 5e-3)
    j = m.jump(0.0, 0.0)
    jj = np.linalg.norm(j.conj().T @ j, 2)
    loads = [grid.dt * max(np.linalg.norm(m.hamiltonian(t, 0.0), 2), jj)
             for t in grid.left_times]
    first = int(np.argmax(np.array(loads) > 0.05))
    t_first = grid.left_times[first]
    assert abs(t_first - 5.0) < 0.1
    for build in (lambda: pair_table(m, 0.0, grid),
                  lambda: step_matrices(cascade_generators(m), 0.0, grid)):
        with pytest.raises(StepTooLarge, match=f"{loads[first]:.3g} exceeds 0.05 "
                                               f"at t={t_first:.4g};"):
            build()


def _check_batch_matches_loop(m):
    grid = TimeGrid(0.0, 5.0, 1e-3)
    tab = pair_table(m, 0.2, grid)
    for k in (0, 1234, 4999):
        a0_ref, a1_ref = _kraus_reference(m, grid.left_times[k], 0.2, grid.dt)
        assert np.abs(tab.a0[k] - a0_ref).max() < 1e-14
        assert np.abs(tab.a1[k] - a1_ref).max() < 1e-14


def test_pair_table_batch_matches_loop():
    _check_batch_matches_loop(three_level_model(0.0, 5.0, 1.0, T_plateau=4.0))


def test_pair_table_of_a_time_varying_jump_matches_loop():
    _check_batch_matches_loop(modulated_jump_sensor())


def test_stacks_with_a_time_varying_jump_give_per_bin_jump_tables():
    # a stacks hook says nothing about the jump: one that varies in time
    # gets the per-bin tables of the bin-by-bin (t, theta) maps
    loop = modulated_jump_sensor()
    sge = loop.jump(0.0, 0.0)  # gamma(0) = 1

    def stacks(ts, theta):
        h = np.broadcast_to(loop.hamiltonian(0.0, theta), (len(ts), 2, 2))
        return h, np.sqrt(1.0 + 0.5 * np.sin(3.0 * np.asarray(ts)))[:, None, None] * sge
    _check_batch_matches_loop(SensorModel(dim=2, hamiltonian=loop.hamiltonian, jump=loop.jump,
                                          initial_state=loop.initial_state, stacks=stacks))


def test_static_pair_table_shares_one_pair():
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    tab = pair_table(m, 0.0, grid)
    assert tab.a0.shape == (1, 2, 2) and tab.n_steps == grid.n_steps
    a0 = tab.per_bin(tab.a0)
    assert np.shares_memory(a0[0], a0[999])


def test_static_jump_stays_one_matrix():
    # the pulsed emitter's jump is one matrix for every bin: its click stack
    # is a read-only broadcast of it; a jump that varies in time is per bin
    grid = TimeGrid(0.0, 1.0, 1e-3)
    tab = pair_table(three_level_model(0.0, 5.0, 1.0, T_plateau=0.5), 0.3, grid)
    assert tab.a1.shape == (grid.n_steps, 3, 3) and tab.a0.shape == tab.a1.shape
    assert tab.a1.strides[0] == 0 and not tab.a1.flags.writeable
    per_bin = pair_table(modulated_jump_sensor(), 0.3, grid).a1
    assert per_bin.strides[0] != 0 and not np.array_equal(per_bin[0], per_bin[500])


def _per_bin_copies(*stacks):
    """Contiguous copies of operator stacks: static ones lose their stride 0
    and take the per-bin route of the table builders."""
    return [np.ascontiguousarray(a) for a in stacks]


def test_static_jump_pair_table_is_bitwise_the_per_bin_formulas():
    m = three_level_model(0.0, 5.0, 1.0, T_plateau=0.5)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    ts = grid.left_times
    tab = pair_table(m, 0.3, grid)
    a0, a1 = _kraus_tables(*_per_bin_copies(*operator_stacks(m, 0.3, ts)), grid.dt,
                           STEP_GUARD, ts)
    assert a1.strides[0] != 0
    assert tab.a0.tobytes() == a0.tobytes()
    assert np.ascontiguousarray(tab.a1).tobytes() == a1.tobytes()


@pytest.mark.parametrize("cascade", ["direct", "build_decoder"])
def test_static_jump_step_matrices_are_bitwise_the_per_bin_formulas(cascade):
    from cmsense.cascade import cascade_generators, step_matrices
    from cmsense.decoder import build_decoder
    m = three_level_model(0.0, 5.0, 1.0, T_plateau=0.5)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    ts = grid.left_times
    dec = None if cascade == "direct" else build_decoder(m, 0.0, grid)
    ops = step_matrices(cascade_generators(m, dec), 0.3, grid)
    a0, a1 = _kraus_tables(*_per_bin_copies(*operator_stacks(m, 0.3, ts)), grid.dt,
                           STEP_GUARD, ts, None if dec is None else _per_bin_copies(dec.hd, dec.jd))
    assert ops.pure and (ops.a1.strides[0] == 0) is (dec is None)
    assert ops.a0.tobytes() == a0.tobytes()
    assert np.ascontiguousarray(ops.a1).tobytes() == a1.tobytes()


@pytest.mark.parametrize("static", [(True, True), (True, False), (False, True)],
                         ids=["both_static", "a_static", "b_static"])
def test_static_click_kron_is_bitwise_the_per_bin_transfer(static):
    # one click kron added to every bin's no-click kron gives the bits of
    # the per-bin sum, also when only one side's click stack is static
    m = three_level_model(0.0, 5.0, 1.0, T_plateau=0.5)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    ta, tb = pair_table(m, 0.3, grid), pair_table(m, 0.35, grid)
    copy = lambda t: StepOps(t.n_steps, t.dt, t.a0, np.ascontiguousarray(t.a1), t.x0, pure=True)
    fast = transfer(*(t if s else copy(t) for t, s in zip((ta, tb), static)))
    slow = transfer(copy(ta), copy(tb))
    for lo, hi in [(0, 256), (256, 512), (744, 1000), (999, 1000)]:
        assert fast(lo, hi).tobytes() == slow(lo, hi).tobytes()


@pytest.mark.parametrize("model", [two_level_model(omega=1.0, delta=0.3, gamma=1.0),
                                   three_level_model(0.0, 5.0, 1.0, T_plateau=0.5),
                                   modulated_jump_sensor()],
                         ids=["static_two_level", "pulsed_three_level", "modulated_jump"])
def test_pair_table_is_the_sensor_only_step_table(model):
    # one table form: the sensor's Kraus pairs are the decoder-free cascade's
    from cmsense.cascade import cascade_generators, step_matrices
    grid = TimeGrid(0.0, 1.0, 1e-3)
    tab = pair_table(model, 0.3, grid)
    ops = step_matrices(cascade_generators(model), 0.3, grid)
    assert tab.pure and ops.pure and tab.n_steps == ops.n_steps == grid.n_steps
    assert np.array_equal(tab.a0, ops.a0) and np.array_equal(tab.a1, ops.a1)
    assert len(tab.a0) == (grid.n_steps if model.time_dependent else 1)
    assert np.allclose(tab.x0, ops.x0, rtol=0.0, atol=1e-15)


def test_evolve_density_trace_drift_linear_in_dt():
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    drifts = []
    for dt in (2e-3, 1e-3):
        rhos = evolve_density(m, 0.0, TimeGrid(0.0, 10.0, dt))
        drifts.append(abs(np.trace(rhos[-1]).real - 1.0))
    ratio = drifts[0] / drifts[1]
    assert 1.7 < ratio < 2.3


def test_evolve_density_raises_on_coarse_grid():
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    with pytest.raises(TraceDrift):
        evolve_density(m, 0.0, TimeGrid(0.0, 20.0, 0.5), max_step=1.0,
                       trace_tol=1e-3)


def test_generalized_at_equal_parameters_is_density():
    m = two_level_model(omega=1.0, delta=0.3, gamma=1.0)
    grid = TimeGrid(0.0, 5.0, 1e-3)
    mu = evolve_generalized(m, 0.3, 0.3, grid)
    rho = evolve_density(m, 0.3, grid)[-1]
    assert np.abs(mu - rho).max() < 1e-13


def test_generalized_conjugate_symmetry():
    # mu_{a,b} = mu_{b,a}^dag holds for every product of Kraus sandwiches
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    grid = TimeGrid(0.0, 3.0, 1e-3)
    mab = evolve_generalized(m, 0.1, 0.25, grid)
    mba = evolve_generalized(m, 0.25, 0.1, grid)
    assert np.abs(mab - mba.conj().T).max() < 1e-13


def _loop_reference(ta, tb, mu, n_steps):
    """Per-bin sandwich mu -> sum_s A^s_a mu A^s_b^dag, one bin at a time."""
    out = [mu]
    (a0a, a1a), (a0b, a1b) = ((t.per_bin(t.a0), t.per_bin(t.a1)) for t in (ta, tb))
    for k in range(n_steps):
        mu = a0a[k] @ mu @ a0b[k].conj().T + a1a[k] @ mu @ a1b[k].conj().T
        out.append(mu)
    return np.array(out)


_PRIMITIVE_CASES = {
    "static_two_level": (two_level_model(omega=1.0, delta=0.3, gamma=1.0), "transfer"),
    "pulsed_three_level": (three_level_model(0.0, 5.0, 1.0, T_plateau=0.5), "transfer"),
    "pulsed_three_level_table": (three_level_model(0.0, 5.0, 1.0, T_plateau=0.5), "table"),
    "modulated_jump": (modulated_jump_sensor(), "transfer"),
}


@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 7, 1000])
@pytest.mark.parametrize("case", sorted(_PRIMITIVE_CASES))
def test_propagate_linear_matches_per_bin_loop(case, n_steps):
    m, form = _PRIMITIVE_CASES[case]
    grid = TimeGrid(0.0, 1.0, 1e-3)  # 1000 bins: several blocks, odd and even tree levels
    ta, tb = pair_table(m, 0.3, grid), pair_table(m, 0.35, grid)
    maps = transfer(ta, tb)
    if form == "table":
        maps = maps(0, grid.n_steps)
    mu0 = np.outer(m.initial_state, m.initial_state.conj())
    ref = _loop_reference(ta, tb, mu0, n_steps)
    scale = np.abs(ref).max(axis=(1, 2))

    final = propagate_linear(maps, mu0.ravel(), n_steps).reshape(mu0.shape)
    assert np.abs(final - ref[-1]).max() <= 1e-12 * scale[-1]
    series = propagate_linear(maps, mu0.ravel(), n_steps, series=True)
    assert series.shape == (n_steps + 1, m.dim ** 2)
    err = np.abs(series.reshape(ref.shape) - ref).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * scale)
