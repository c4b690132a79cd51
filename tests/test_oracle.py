"""Exhaustive small-instance oracles for the time-binned emission field.

These enumerate the full 2^N record space; they exist to validate the
scalable production routes and are deliberately independent of them.
"""
import numpy as np
import pytest

from cmsense import TimeGrid, three_level_model, two_level_model
from cmsense.decoder import two_level_decoder
from cmsense.errors import TooManyBins
from cmsense.models import operator_stacks
from cmsense.oracle import (brute_counting_distribution, brute_env_state,
                            brute_global_state, counting_fisher_exact,
                            uhlmann_fidelity)
from cmsense.propagate import _kraus_tables, cascade_generators, evolve_density


@pytest.fixture(scope="module")
def emitter():
    return two_level_model(omega=1.0, delta=0.0, gamma=1.0)


def test_single_bin_click_amplitude(emitter):
    # after one bin from |g>: click amplitude comes only through
    # A1 A0-free path; |<1,e..| = 0, the click row is sqrt(dt) J |g> ~ 0
    # from |g>, so drive first: use an excited start via two bins
    dt = 0.01
    g = brute_global_state(emitter, 0.0, 1, dt)
    amp = g.amplitudes * g.raw_norm
    # no-click row ~ A0|g>, click row = sqrt(dt) J |g> = 0 (J|g> = 0)
    assert np.abs(amp[1]).max() < 1e-14
    assert abs(np.linalg.norm(amp[0]) - 1.0) < 2 * dt


def test_two_bin_click_amplitude_scales_with_sqrt_dt(emitter):
    dt = 0.01
    g = brute_global_state(emitter, 0.0, 2, dt)
    amp = g.amplitudes * g.raw_norm
    # record 01 (click in bin 2): amplitude = sqrt(dt) J A0 |g>
    a0 = np.eye(2, dtype=complex) - 1j * dt * emitter.hamiltonian(0.0, 0.0) \
        - 0.5 * dt * np.diag([1.0, 0.0])
    j = emitter.jump(0.0, 0.0)
    ref = np.sqrt(dt) * (j @ a0 @ np.array([0.0, 1.0], dtype=complex))
    assert np.abs(amp[2] - ref).max() < 1e-14


def test_global_state_is_normalized(emitter):
    g = brute_global_state(emitter, 0.3, 6, 0.2)
    assert np.linalg.norm(g.state) == pytest.approx(1.0, abs=1e-13)
    assert g.raw_norm == pytest.approx(1.0, abs=0.05)


def test_env_state_consistency_with_master_equation(emitter):
    # tracing the field out of the global state must reproduce the
    # master-equation system state on the same grid
    n_bins, dt = 8, 0.1
    g = brute_global_state(emitter, 0.0, n_bins, dt)
    amp = g.amplitudes * g.raw_norm
    rho_sys = amp.T @ amp.conj()
    rhos = evolve_density(emitter, 0.0, TimeGrid(0.0, n_bins * dt, dt),
                          max_step=1.0, trace_tol=1.0)
    assert np.abs(rho_sys - rhos[-1]).max() < 1e-12


def test_env_state_is_valid_density(emitter):
    e = brute_env_state(emitter, 0.1, 6, 0.15)
    w = np.linalg.eigvalsh(e.state)
    assert w.min() > -1e-12
    assert np.trace(e.state).real == pytest.approx(1.0, abs=1e-12)
    # rank bounded by the system dimension for a pure joint state
    assert np.sum(w > 1e-12) <= 2


def test_uhlmann_fidelity_bounds_and_selfconsistency(emitter):
    e1 = brute_env_state(emitter, 0.0, 6, 0.15)
    e2 = brute_env_state(emitter, 0.25, 6, 0.15)
    f = uhlmann_fidelity(e1.state, e2.state)
    assert 0.0 < f < 1.0
    assert uhlmann_fidelity(e1.state, e1.state) == pytest.approx(1.0, abs=1e-12)
    assert uhlmann_fidelity(e2.state, e1.state) == pytest.approx(f, abs=1e-12)


def test_bin_budget_guard(emitter):
    with pytest.raises(TooManyBins):
        brute_global_state(emitter, 0.0, 13, 0.1)


def test_counting_distribution_normalized(emitter):
    d = brute_counting_distribution(emitter, 0.0, 10, 0.1)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(d.probs >= 0.0)
    # raw completeness defect is the O(N dt^2) drift, recorded not hidden
    assert 0.0 < abs(d.raw_defect) < 0.02


def test_counting_distribution_with_decoder_matches_vacuum_weight(emitter):
    dec = two_level_decoder(1.0, 1.0, 1.0)
    d = brute_counting_distribution(emitter, 0.0, 8, 0.1, dec=dec)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
    from cmsense.cascade import cascade_generators, vacuum_probability
    gen = cascade_generators(emitter, dec)
    p_vac = vacuum_probability(gen, 0.0, TimeGrid(0.0, 0.8, 0.1), max_step=1.0)
    # record 0 of the normalized distribution vs the raw no-click weight
    assert d.probs[0] == pytest.approx(p_vac / (1.0 + d.raw_defect), rel=1e-10)


def test_record_integer_bit_n_is_a_click_in_bin_n(emitter):
    # from |g> no record clicks in bin 0 (J|g> = 0), but one can in bin 4
    d = brute_counting_distribution(emitter, 0.0, 5, 0.1)
    assert d.probs[0b00001] == 0.0 and d.probs[0b10000] > 0.0


def test_exact_fisher_is_zero_at_the_symmetric_point(emitter):
    # detuning families at Delta=0 have records with probabilities even
    # in theta, so the distribution-level finite-difference value is 0
    fi = counting_fisher_exact(emitter, 0.0, 8, 0.1, theta_step=1e-3)
    assert fi == pytest.approx(0.0, abs=1e-12)


def test_exact_fisher_positive_off_symmetry():
    m = two_level_model(omega=2.0, delta=1.5, gamma=1.0)
    fi = counting_fisher_exact(m, 1.5, 12, 0.15, theta_step=1e-3)
    assert fi == pytest.approx(0.0787054, rel=1e-4)


def test_three_level_global_state_is_bitwise_the_sensor_table_route():
    # the decoder-free cascade keeps a unit-norm copy of the start vector,
    # which differs from the three-level initial state in its last bits;
    # the oracle's branches start from the model's own state, bit for bit
    # the route of the sensor-only tables it used before (written out here)
    m = three_level_model(0.0, 5.0, 1.0, T_plateau=0.5)
    assert cascade_generators(m).initial_state.tobytes() != m.initial_state.tobytes()
    n_bins, dt, theta = 8, 0.1, 0.3
    ts = TimeGrid(0.0, n_bins * dt, dt).left_times
    a0, a1 = _kraus_tables(*operator_stacks(m, theta, ts), dt, 1.0, ts)
    branch = m.initial_state[None, :].astype(complex)
    for k in range(n_bins):
        branch = np.concatenate([branch @ a0[k].T, branch @ a1[k].T], axis=0)
    raw_norm = float(np.linalg.norm(branch))
    g = brute_global_state(m, theta, n_bins, dt)
    assert g.raw_norm == raw_norm
    assert g.state.tobytes() == (branch / raw_norm).ravel().tobytes()
