import numpy as np
import pytest

from cmsense import TimeGrid, two_level_model
from cmsense.cascade import cascade_generators, replay_records, sample_records
from cmsense.decoder import two_level_decoder
from cmsense.errors import GridTooNarrow
from cmsense.estimate import (_refine, default_grid_width, interrogation_study,
                              likelihood_curve, study_table)


def test_refine_recovers_parabola_vertex():
    grid = np.linspace(-1.0, 1.0, 21)
    vertex = 0.1234
    logl = -(grid - vertex) ** 2
    assert _refine(grid, logl) == pytest.approx(vertex, abs=1e-12)


def test_refine_flat_returns_center():
    grid = np.linspace(-1.0, 1.0, 11)
    assert _refine(grid, np.zeros(11), flat_center=0.5) == 0.5
    assert _refine(grid, np.zeros(11)) is None


def test_refine_boundary_returns_none():
    grid = np.linspace(-1.0, 1.0, 11)
    logl = grid.copy()  # maximal at the right edge
    assert _refine(grid, logl) is None


def test_refine_stays_inside_grid():
    grid = np.linspace(0.0, 1.0, 6)
    logl = np.array([0.0, 0.1, 0.2, 0.9, 1.0, 0.99])
    est = _refine(grid, logl)
    assert grid[0] <= est <= grid[-1]


def test_default_grid_width_formula():
    assert default_grid_width(100.0, 20.0) == pytest.approx(0.5)
    assert default_grid_width(0.0, 20.0) == 2.0
    assert default_grid_width(1e-9, 20.0) == 2.0  # capped


def _one_record(gen, grid):
    """The click indices of the record of stream (101, 0)."""
    return sample_records(gen, 0.0, grid, 1, seed=101)[0][0]


def test_likelihood_curve_peaks_near_truth():
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    gen = cascade_generators(m, two_level_decoder(1.0, 1.0, 1.0))
    grid = TimeGrid(0.0, 30.0, 2e-3)
    rec = _one_record(gen, grid)
    curve = likelihood_curve(gen, rec, np.linspace(-1.2, 1.2, 41), grid)
    assert curve.log_likelihoods.shape == (41,)
    assert abs(curve.argmax) < 1.2
    assert np.isfinite(curve.log_likelihoods).all()


def test_likelihood_curve_equals_per_theta_replays():
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    gen = cascade_generators(m, two_level_decoder(1.0, 1.0, 1.0))
    grid = TimeGrid(0.0, 5.0, 2e-3)
    rec = _one_record(gen, grid)
    assert len(rec) > 0
    thetas = np.linspace(-1.2, 1.2, 9)
    curve = likelihood_curve(gen, rec, thetas, grid)
    per_theta = [replay_records(gen, th, [rec], grid)[0] for th in thetas]
    assert np.array_equal(curve.log_likelihoods, per_theta)


def test_likelihood_curve_boundary_guard():
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    gen = cascade_generators(m, two_level_decoder(1.0, 1.0, 1.0))
    grid = TimeGrid(0.0, 30.0, 2e-3)
    rec = _one_record(gen, grid)
    # a one-sided window far from truth pins the maximum to its edge
    with pytest.raises(GridTooNarrow):
        likelihood_curve(gen, rec, np.linspace(2.0, 3.0, 11), grid)


def test_interrogation_study_offset_control():
    # detuned decoder at a short horizon: small but healthy information
    m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)

    def gen_for(T):
        return cascade_generators(m, two_level_decoder(1.0, 1.0, 1.0))

    rows = interrogation_study(gen_for, 0.0, [20.0], n_records=120, dt=2e-3,
                               seed=31, fisher_n_traj=400)
    r = rows[0]
    assert r.n_records == 120
    assert r.fisher > 5.0
    assert r.n_boundary < 30
    assert np.isfinite(r.inv_var_per_k)
    # single-record inverse variance within a factor of a few of the
    # per-record information (finite-sample efficiency gap expected)
    assert 0.2 * r.fisher < r.inv_var_per_k < 3.0 * r.fisher
    assert abs(r.bias) < 6.0 * np.sqrt(r.variance / r.n_records)

    table = study_table(rows)
    assert table[0]["T"] == 20.0
    assert set(table[0]) >= {"T", "inv_var_per_K", "fisher", "fisher_err",
                             "K", "seed", "mean_estimate", "bias",
                             "n_boundary", "grid_width"}
