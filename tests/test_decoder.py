"""Decoder synthesis: gauge algebra, closed forms, and darkness."""
import numpy as np
import pytest

from cmsense import TimeGrid, two_level_model
from cmsense.decoder import (build_decoder, liouvillian_steady_state,
                             stationary_decoder, two_level_decoder,
                             verify_decoding)
from cmsense.errors import (CmsenseError, DegenerateSteadyState, NonUnitaryGauge,
                            RankDeficientRho, RankDeficientSteadyState)

SZ = np.diag([1.0, -1.0]).astype(complex)
SEE = np.diag([1.0, 0.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_stationary_closed_form_sz_gauge(delta):
    # with W0 = sz the synthesized pair reduces to H_D = Delta|e><e| + (Omega/2) sx
    m = two_level_model(omega=1.0, delta=delta, gamma=1.0)
    d = stationary_decoder(m, delta, w0=SZ)
    href = delta * SEE + 0.5 * SX
    assert np.abs(d.hd[0] - href).max() < 1e-14
    jd = d.jd[0]
    # gauge freedom leaves |J_D|^2_F = Gamma invariant
    assert np.sum(np.abs(jd) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_stationary_default_gauge_flips_drive_sign():
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    d = stationary_decoder(m, 0.0)
    assert d.hd.shape == d.jd.shape == (1, 2, 2)
    assert d.grid is None and not d.time_dependent
    assert np.abs(d.hd[0] - (-0.5 * SX)).max() < 1e-14


def test_stationary_purified_initialization_is_dark():
    m = two_level_model(omega=1.0, delta=0.3, gamma=1.0)
    d = stationary_decoder(m, 0.3)
    assert d.purified_joint is not None
    p = verify_decoding(m, d, 0.3, TimeGrid(0.0, 20.0, 2e-3))
    assert abs(1.0 - p) < 1e-9


def test_build_decoder_relaxes_to_stationary_pair():
    m = two_level_model(omega=1.0, delta=0.3, gamma=1.0)
    stat = stationary_decoder(m, 0.3)
    devs = []
    for dt in (1e-3, 5e-4):
        b = build_decoder(m, 0.3, TimeGrid(0.0, 20.0, dt))
        k = round(19.5 / dt)  # the bin starting at t = 19.5
        devs.append(np.abs(b.hd[k] - stat.hd[0]).max())
        jf = np.sum(np.abs(b.jd[k]) ** 2)
        assert abs(jf - 1.0) < 2e-3
    assert devs[0] < 1e-4
    # leading deviation is the O(dt) synthesis error once transients decay
    assert 1.5 < devs[0] / devs[1] < 2.6


def test_decoder_tables_hold_on_their_own_grid_only():
    # 1000 bins each: a foreign dt with the same bin count and first time
    # must not pass for the synthesis grid
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 2e-3)
    b = build_decoder(m, 0.0, grid)
    assert b.time_dependent and b.grid == grid
    assert b.hd.shape == b.jd.shape == (grid.n_steps, 2, 2)
    with pytest.raises(CmsenseError, match="decoder tables do not match the grid"):
        verify_decoding(m, b, 0.0, TimeGrid(0.0, 1.0, 1e-3))
    same = TimeGrid(0.0, 2.0, 2e-3)
    assert same is not grid
    assert verify_decoding(m, b, 0.0, same) == verify_decoding(m, b, 0.0, grid)


def test_build_decoder_hermiticity_residual_tracked():
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    b = build_decoder(m, 0.0, TimeGrid(0.0, 2.0, 1e-3))
    assert 0.0 <= b.herm_residual < 1e-2
    hd = b.hd[1000]
    assert np.abs(hd - hd.conj().T).max() < 1e-14


def test_build_decoder_rank_guard_names_first_failing_bin():
    # the undriven emitter relaxes to pure |g><g|, so rho_tilde loses rank
    # relative to its trace; the batched synthesis must stop at that bin
    m = two_level_model(omega=0.0, delta=0.5, gamma=1.0)
    with pytest.raises(RankDeficientRho, match=r"rank-deficient at t=22\.34 "):
        build_decoder(m, 0.5, TimeGrid(0.0, 30.0, 1e-2))


def test_two_level_decoder_convention():
    d = two_level_decoder(1.0, -0.7, 1.0)
    assert np.abs(d.hd[0] - (0.7 * SEE + 0.5 * SX)).max() < 1e-14
    j = d.jd[0]
    assert j[1, 0] == pytest.approx(1.0)
    assert np.array_equal(d.initial_state_d, [0.0, 1.0])
    assert d.purified_joint is None


def test_gauge_must_be_unitary():
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    with pytest.raises(NonUnitaryGauge):
        stationary_decoder(m, 0.0, w0=np.diag([1.0, 0.5]).astype(complex))


def test_steady_state_kernel_guard():
    # two decoupled levels with no drive: kernel is degenerate
    from cmsense.models import SensorModel
    zero = np.zeros((1, 2, 2), dtype=complex)
    m = SensorModel(dim=2, stacks=lambda ts: (zero, zero), generator=np.diag([-1.0, 0.0]),
                    initial_state=np.array([1.0, 0.0], dtype=complex),
                    time_dependent=False)
    with pytest.raises(DegenerateSteadyState):
        liouvillian_steady_state(m, 0.0)


def test_rank_deficient_steady_state_guard():
    # without a drive the emitter settles into pure |g><g|; the gauge
    # square root then has no inverse and synthesis must refuse
    m = two_level_model(omega=0.0, delta=0.5, gamma=1.0)
    with pytest.raises((RankDeficientSteadyState, DegenerateSteadyState)):
        stationary_decoder(m, 0.5)
