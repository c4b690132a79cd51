"""Emission-field QFI via the two-parameter generalized state.

The frozen numbers in this file were produced by the exhaustive
small-instance oracle and by converged runs of the fidelity route at
the default finite-difference settings; they pin the production code
against silent regressions.
"""
import numpy as np
import pytest

from cmsense import (env_fidelity, env_qfi, global_fidelity, global_qfi,
                     three_level_model, two_level_model)
from cmsense.qfi import qfi_pair


@pytest.fixture(scope="module")
def emitter():
    return two_level_model(omega=1.0, delta=0.0, gamma=1.0)


def test_fidelity_normalized_bounds(emitter):
    for t2 in (0.05, 0.2, 0.5):
        f = env_fidelity(emitter, 0.0, t2, T=4.0, dt=2e-3)
        assert 0.0 <= f <= 1.0 + 1e-12


def test_fidelity_equal_parameters_is_unity(emitter):
    assert env_fidelity(emitter, 0.1, 0.1, T=4.0, dt=2e-3) == pytest.approx(1.0, abs=1e-12)
    assert global_fidelity(emitter, 0.1, 0.1, T=4.0, dt=2e-3) == pytest.approx(1.0, abs=1e-12)


def test_global_overlap_below_env_fidelity(emitter):
    # tracing out the system can only increase distinguishability bounds
    for t2 in (0.1, 0.4):
        fe = env_fidelity(emitter, 0.0, t2, T=6.0, dt=2e-3)
        fg = global_fidelity(emitter, 0.0, t2, T=6.0, dt=2e-3)
        assert fg <= fe + 1e-12


def test_env_qfi_resonant_value(emitter):
    q = env_qfi(emitter, 0.0, T=20.0, dt=2e-3)
    assert q.value == pytest.approx(17.046806, abs=5e-5)


def test_env_qfi_detuned_value():
    m = two_level_model(omega=1.0, delta=0.3, gamma=1.0)
    q = env_qfi(m, 0.3, T=20.0, dt=2e-3)
    assert q.value == pytest.approx(16.488102, abs=5e-5)


def test_global_qfi_dominates_env(emitter):
    g = global_qfi(emitter, 0.0, T=20.0, dt=2e-3)
    assert g.value == pytest.approx(17.886115, abs=5e-5)
    assert g.value >= 17.046806


def test_qfi_result_records_window(emitter):
    q = env_qfi(emitter, 0.0, T=10.0, dt=2e-3)
    # auto-selected step keeps the worst infidelity inside the stable window
    assert q.fd_step > 0
    accepted = [f for d, f in q.fidelity_samples if abs(abs(d) - q.fd_step) < 1e-15]
    inf = max(1.0 - f for f in accepted)
    assert 1e-6 <= inf <= 1e-2


def test_qfi_positive_and_symmetric_under_detuning_sign():
    qp = env_qfi(two_level_model(1.0, 0.4, 1.0), 0.4, T=8.0, dt=2e-3).value
    qm = env_qfi(two_level_model(1.0, -0.4, 1.0), -0.4, T=8.0, dt=2e-3).value
    assert qp > 0
    assert qp == pytest.approx(qm, rel=1e-6)


@pytest.mark.parametrize("model, T", [(two_level_model(1.0, 0.0, 1.0), 4.0),
                                      (three_level_model(0.0, 5.0, 1.0, T_plateau=0.5), 6.5)],
                         ids=["static_two_level", "pulsed_three_level"])
def test_qfi_pair_equals_separate_calls(model, T):
    # one engine serves both kinds: the same numbers as two separate
    # engines, from half the generalized-state propagations
    env, glob = qfi_pair(model, 0.0, T, dt=2e-3)
    sep_env, sep_glob = env_qfi(model, 0.0, T, dt=2e-3), global_qfi(model, 0.0, T, dt=2e-3)
    for got, ref in ((env, sep_env), (glob, sep_glob)):
        assert got.value == ref.value and got.fd_step == ref.fd_step
        assert got.fidelity_samples == ref.fidelity_samples
    assert env.propagations == glob.propagations == sep_env.propagations == 9
    assert sep_glob.propagations == 9


def test_static_qfi_keeps_its_bits():
    # a static model's generalized states are matrix powers whether they are
    # walked alone or stacked: the values frozen before the states of a
    # finite-difference step were propagated as one stack
    env, glob = qfi_pair(two_level_model(1.0, 0.0, 1.0), 0.0, 30.0, dt=2e-3)
    assert (env.value, glob.value) == (25.91345188873717, 26.752765990512017)
    assert (env.fd_step, glob.fd_step) == (1e-3, 1e-3)
