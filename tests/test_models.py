import sys
from pathlib import Path

import numpy as np
import pytest

from cmsense import three_level_model, two_level_model
from cmsense.config import PRESET_NAMES, preset_config
from cmsense.decoder import liouvillian_steady_state
from cmsense.errors import NonpositiveRate
from cmsense.estimate import default_grid_width
from cmsense.models import (gaussian_pi_envelope, operator_stacks, plateau_envelope,
                            two_level_steady_state)


def test_two_level_operators():
    m = two_level_model(omega=1.0, delta=0.3, gamma=1.0)
    h = m.hamiltonian(0.0, 0.3)
    # basis {e, g}: H = -Delta|e><e| + (Omega/2) sx
    assert h[0, 0] == pytest.approx(-0.3)
    assert h[1, 1] == 0.0
    assert h[0, 1] == pytest.approx(0.5)
    j = m.jump(0.0, 0.3)
    assert j[1, 0] == pytest.approx(1.0)
    assert j[0, 1] == 0.0
    assert np.array_equal(m.initial_state, [0.0, 1.0])
    assert not m.time_dependent


def test_two_level_theta_passthrough():
    # the (t, theta) maps evaluate at the supplied theta, not theta_ref
    m = two_level_model(omega=1.0, delta=0.3, gamma=1.0)
    assert m.hamiltonian(0.0, 1.7)[0, 0] == pytest.approx(-1.7)


def test_two_level_rejects_nonpositive_gamma():
    with pytest.raises(NonpositiveRate):
        two_level_model(omega=1.0, delta=0.0, gamma=0.0)


@pytest.mark.parametrize("delta", [0.0, 0.3, -0.7, 2.0])
def test_steady_state_matches_lindblad_kernel(delta):
    m = two_level_model(omega=1.0, delta=delta, gamma=1.0)
    rho = liouvillian_steady_state(m, delta)
    ref = two_level_steady_state(1.0, delta, 1.0)
    assert np.abs(rho - ref).max() < 1e-12


def test_steady_state_spectrum_closed_form():
    # eigenvalues 1/2 +- sqrt(2s+1)/(2(1+s)); at Omega=Gamma=1, Delta=0: s=2
    rho = two_level_steady_state(1.0, 0.0, 1.0)
    ev = np.sort(np.linalg.eigvalsh(rho))
    assert ev[1] == pytest.approx(0.8726779962, abs=1e-9)
    assert ev[0] == pytest.approx(0.1273220038, abs=1e-9)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)


def test_plateau_envelope_window():
    tau, T = 2.0, 50.0
    v_mid = plateau_envelope(25.0, 5.0, tau, T)
    assert v_mid == pytest.approx(-5.0, abs=1e-4)
    assert plateau_envelope(-0.1, 5.0, tau, T) == 0.0
    assert plateau_envelope(T + 0.1, 5.0, tau, T) == 0.0
    assert abs(plateau_envelope(0.0, 5.0, tau, T)) < 1e-8


def test_gaussian_pulse_area_is_pi():
    sigma, t_c = 0.05, 21.0
    ts = np.linspace(t_c - 1.0, t_c + 1.0, 40001)
    area = np.trapezoid(gaussian_pi_envelope(ts, t_c, sigma), ts)
    assert area == pytest.approx(np.pi, rel=1e-8)
    neg = np.trapezoid(gaussian_pi_envelope(ts, t_c, sigma, sign=-1), ts)
    assert neg == pytest.approx(-np.pi, rel=1e-8)


def test_default_pulse_timing():
    # plateau ramp tau = 2/gamma, pi pulse centred at t_c = T + 1/gamma
    # with width sigma = 0.05/gamma
    m = three_level_model(0.0, 5.0, 1.0, T_plateau=50.0)
    for t in (0.5, 1.0, 25.0, 49.0, 49.5):
        assert m.hamiltonian(t, 0.0)[0, 1] == 0.5 * plateau_envelope(t, 5.0, 2.0, 50.0)
    for t in (50.9, 51.0, 51.05, 51.1):
        assert m.hamiltonian(t, 0.0)[0, 2] == 0.5 * gaussian_pi_envelope(t, 51.0, 0.05)
    peak = 0.5 * np.pi / (0.05 * np.sqrt(2.0 * np.pi))
    assert m.hamiltonian(51.0, 0.0)[0, 2] == pytest.approx(peak, rel=1e-12)


def test_three_level_hamiltonian_structure():
    m = three_level_model(0.0, 5.0, 1.0, T_plateau=50.0)
    h = m.hamiltonian(25.0, 0.7)
    assert h[0, 0] == pytest.approx(0.7)
    assert h[0, 1] == pytest.approx(0.5 * plateau_envelope(25.0, 5.0, 2.0, 50.0))
    assert abs(h[0, 2]) < 1e-10  # pi pulse far away
    h2 = m.hamiltonian(51.0, 0.7)
    assert h2[0, 2] == pytest.approx(0.5 * gaussian_pi_envelope(51.0, 51.0, 0.05))
    j = m.jump(0.0, 0.0)
    assert j[1, 0] == pytest.approx(1.0)
    init = m.initial_state
    assert init @ init.conj() == pytest.approx(1.0)
    assert init[0] == 0.0 and init[1].real > 0 and init[2].real < 0


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_three_level_stacks_follow_the_pulse_protocol(gamma):
    # the plateau ramps over 2/gamma, and the pi pulse of width 0.05/gamma
    # sits 1/gamma after the window closes
    T, omega = 20.0, 5.0
    m = three_level_model(0.0, omega, gamma, T_plateau=T)
    ts = np.linspace(0.0, T + 6.0 / gamma, 3001)
    hs, js = operator_stacks(m, 0.3, ts)
    o1 = plateau_envelope(ts, omega, 2.0 / gamma, T)
    o2 = gaussian_pi_envelope(ts, T + 1.0 / gamma, 0.05 / gamma)
    ref = np.zeros((len(ts), 3, 3), dtype=complex)
    ref[:, 0, 0] = 0.3
    ref[:, 0, 1] = ref[:, 1, 0] = 0.5 * o1
    ref[:, 0, 2] = ref[:, 2, 0] = 0.5 * o2
    assert np.array_equal(hs, ref)
    # the times sample the pi pulse near its peak
    assert np.abs(o2).max() > 0.5 * np.pi / (0.05 / gamma * np.sqrt(2.0 * np.pi))
    # one jump matrix for every bin, a stride-0 broadcast
    assert js.shape == hs.shape and js.strides[0] == 0
    assert np.array_equal(js[0], np.sqrt(gamma) * np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
    # the scalar operators are the one-bin stacks
    k = 1234
    assert np.array_equal(m.hamiltonian(ts[k], 0.3), hs[k])
    assert np.array_equal(m.jump(ts[k], 0.3), js[k])


def test_three_level_batch_matches_pointwise():
    m = three_level_model(0.0, 5.0, 1.0, T_plateau=20.0)
    ts = np.linspace(0.0, 26.0, 301)
    hb, jb = operator_stacks(m, 0.3, ts)
    hp = np.stack([m.hamiltonian(t, 0.3) for t in ts])
    jp = np.stack([m.jump(t, 0.3) for t in ts])
    assert np.abs(hb - hp).max() < 1e-12
    assert np.abs(jb - jp).max() < 1e-12


def _run_thetas():
    """The θ values at which runs evaluate the operators: each preset's and
    each benchmark cell's θ, the QFI's θ +/- d over its step range (and
    the 1e-3 of a central difference), and fig2_mle's 41-point grids
    θ + linspace(-w, w, 41) for grid half-widths from 5/sqrt(F) to the cap."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    base = {float(preset_config(name).model["theta"]) for name in PRESET_NAMES}
    base |= {float(cfg["model"]["theta"]) for size in workloads.CELLS.values()
             for cells in size.values() for _, cfg in cells}
    steps = np.concatenate([[1e-3], np.geomspace(1e-5, 1.0, 23)])
    widths = [default_grid_width(f, t) for f in np.geomspace(1e-2, 1e4, 13) for t in (5.0, 150.0)]
    out = []
    for th in sorted(base):
        out += [th, *(th + steps), *(th - steps)]
        out += [x for w in widths for x in th + np.linspace(-w, w, 41)]
    return np.array(out)


def test_generator_stacks_are_bitwise_the_written_out_operators():
    # H0 + theta G against the operators as each model wrote them out with
    # theta in place, at every theta a run evaluates them at: the same bits
    # (but for theta = -0.0, which the three-level form kept as the sign of
    # its diagonal zero)
    thetas = _run_thetas()
    assert len(thetas) > 1000 and {0.0, 1.0} <= set(thetas)
    see, sx = np.diag([1.0, 0.0]).astype(complex), np.array([[0, 1], [1, 0]], dtype=complex)
    for omega in (1.0, 0.3):
        two = two_level_model(omega=omega, delta=0.0, gamma=1.0)
        h, j = operator_stacks(two, thetas, [0.0])
        old = np.stack([-th * see + 0.5 * omega * sx for th in thetas])
        assert h.tobytes() == old.tobytes() and j.strides[0] == 0
    for gamma, T in ((1.0, 4.0), (0.5, 0.5)):
        three = three_level_model(0.0, 5.0, gamma, T_plateau=T)
        ts = np.arange(0.0, T + 6.0 / gamma, 2e-3)
        o1 = plateau_envelope(ts, 5.0, 2.0 / gamma, T)
        o2 = gaussian_pi_envelope(ts, T + 1.0 / gamma, 0.05 / gamma)
        for th in thetas:
            old = np.zeros((len(ts), 3, 3), dtype=complex)
            old[:, 0, 0] = th
            old[:, 0, 1] = old[:, 1, 0] = 0.5 * o1
            old[:, 0, 2] = old[:, 2, 0] = 0.5 * o2
            h, j = operator_stacks(three, th, ts)
            assert h.tobytes() == old.tobytes() and j.strides[0] == 0
