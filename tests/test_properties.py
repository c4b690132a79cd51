"""Invariant checks that hold across the whole parameter space.

Each test is a randomized property (hypothesis) or a bounds audit; no
frozen numeric targets here, those live with the module tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmsense import TimeGrid, two_level_model
from cmsense.cascade import cascade_generators, sample_records
from cmsense.decoder import stationary_decoder, verify_decoding
from cmsense.oracle import (brute_counting_distribution, brute_env_state,
                            brute_global_state)
from cmsense.propagate import evolve_density
from cmsense.qfi import env_fidelity, env_qfi, global_fidelity, global_qfi

_pars = {
    "omega": st.floats(0.3, 3.0),
    "delta": st.floats(-1.5, 1.5),
    "theta": st.floats(-1.5, 1.5),
}


@settings(max_examples=20, deadline=None)
@given(n_bins=st.integers(2, 8), dt=st.floats(0.02, 0.3), **_pars)
def test_counting_distribution_normalized(n_bins, dt, omega, delta, theta):
    m = two_level_model(omega, delta, 1.0)
    d = brute_counting_distribution(m, theta, n_bins, dt, max_step=1.0)
    assert abs(d.probs.sum() - 1.0) < 1e-6
    assert (d.probs >= 0).all()
    assert d.raw_defect >= 0.0


def test_truncation_defect_second_order():
    m = two_level_model(2.0, 0.5, 1.0)
    defects = [brute_counting_distribution(m, 0.5, 6, dt, max_step=1.0).raw_defect
               for dt in (0.2, 0.1, 0.05)]
    ratios = np.array(defects[:-1]) / np.array(defects[1:])
    assert (ratios > 2.5).all()  # better than first order in dt


def test_counting_distribution_full_width():
    # the largest supported record space, at the criterion tolerance
    m = two_level_model(1.0, 0.0, 1.0)
    d = brute_counting_distribution(m, 0.3, 12, 0.05, max_step=1.0)
    assert d.probs.shape == (4096,)
    assert abs(d.probs.sum() - 1.0) < 1e-6


@settings(max_examples=10, deadline=None)
@given(t1=st.floats(-1.0, 1.0), t2=st.floats(-1.0, 1.0), **_pars)
def test_fidelity_bounds(t1, t2, omega, delta, theta):
    m = two_level_model(omega, delta, 1.0)
    for fid in (env_fidelity, global_fidelity):
        f = fid(m, t1, t2, 1.0, dt=5e-3)
        assert -1e-9 <= f <= 1.0 + 1e-9
    assert env_fidelity(m, t1, t1, 1.0, dt=5e-3) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
def test_global_dominates_emission(delta):
    # tracing out the sensor can only lose information
    m = two_level_model(1.0, delta, 1.0)
    ie = env_qfi(m, delta, 4.0, dt=2e-3).value
    ig = global_qfi(m, delta, 4.0, dt=2e-3).value
    assert ig >= ie - 1e-6 * max(1.0, ie)
    assert ie >= 0.0


@settings(max_examples=10, deadline=None)
@given(**_pars)
def test_density_evolution_stays_physical(omega, delta, theta):
    m = two_level_model(omega, delta, 1.0)
    series = evolve_density(m, theta, TimeGrid(0.0, 2.0, 2e-3))
    probe = series[:: len(series) // 8]
    for rho in probe:
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        assert abs(np.trace(rho).real - 1.0) < 1e-2


@settings(max_examples=8, deadline=None)
@given(**_pars)
def test_oracle_states_positive(omega, delta, theta):
    m = two_level_model(omega, delta, 1.0)
    env = brute_env_state(m, theta, 6, 0.1, max_step=1.0)
    assert np.linalg.eigvalsh(env.state).min() > -1e-10
    assert np.trace(env.state).real == pytest.approx(1.0, abs=1e-10)
    amp = brute_global_state(m, theta, 6, 0.1, max_step=1.0).amplitudes
    rho_sys = amp.T @ amp.conj()
    assert np.linalg.eigvalsh(rho_sys).min() > -1e-10


@settings(max_examples=8, deadline=None)
@given(omega=st.floats(0.5, 2.0), delta=st.floats(-1.0, 1.0))
def test_decoder_darkens_generic_points(omega, delta):
    # stationary decoder synthesis keeps the cascade output dark
    m = two_level_model(omega, delta, 1.0)
    dec = stationary_decoder(m, delta)
    p_vac = verify_decoding(m, dec, delta, TimeGrid(0.0, 6.0, 2e-3))
    assert 1.0 - p_vac < 5e-3


def test_sampling_reproducible():
    m = two_level_model(1.0, 1.0, 1.0)
    dec = stationary_decoder(m, 1.0)
    gen = cascade_generators(m, dec)
    grid = TimeGrid(0.0, 4.0, 2e-3)
    a = sample_records(gen, 1.0, grid, 30, seed=9)
    b = sample_records(gen, 1.0, grid, 30, seed=9)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
