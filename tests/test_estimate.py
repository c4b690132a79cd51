import numpy as np
import pytest

from cmsense import TimeGrid, two_level_model
from cmsense.cascade import cascade_generators, replay_records, sample_records
from cmsense.decoder import two_level_decoder
from cmsense.errors import CmsenseError, GridTooNarrow
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


@pytest.mark.parametrize("n_records", [-5, 0, 1])
def test_interrogation_study_needs_two_records(n_records):
    # the variance of fewer than two estimates is undefined, not infinite precision
    gen = cascade_generators(two_level_model(1.0, 0.0, 1.0), two_level_decoder(1.0, 1.0, 1.0))
    with pytest.raises(CmsenseError, match="n_records"):
        interrogation_study(gen, 0.0, [1.0], n_records=n_records, dt=2e-3)


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
    # records that click carry their own estimates: few tie
    assert 0.0 < r.tied_frac < 0.1

    table = study_table(rows)
    assert table[0]["T"] == 20.0
    assert set(table[0]) >= {"T", "inv_var_per_K", "fisher", "fisher_err",
                             "K", "seed", "mean_estimate", "bias",
                             "n_boundary", "grid_width"}


def test_interrogation_study_reports_the_records_that_tie():
    # the benchmark's MLE cascade (decoder matched at theta = 1): most
    # records are empty, and every empty record has one likelihood curve,
    # so one estimate; tied_frac counts them with any other record there
    gen = cascade_generators(two_level_model(omega=1.0, delta=1.0, gamma=1.0),
                             two_level_decoder(1.0, -1.0, 1.0))
    grid = TimeGrid(0.0, 5.0, 2e-3)
    n, seed = 64, 7
    rows = interrogation_study(gen, 1.0, [5.0], n_records=n, dt=2e-3, seed=seed)
    empty = sum(len(h) == 0 for h in sample_records(gen, 1.0, grid, n, seed=seed)[0]) / n
    assert 0.5 < empty <= rows[0].tied_frac < 1.0


def _scalar_refine(grid, logl, flat_center):
    """The parabolic refinement of one curve written out with scalars:
    (estimate, boundary hit), the grid argmax on a boundary hit."""
    span = float(logl.max() - logl.min())
    i = int(np.argmax(logl))
    if span < 1e-12 * max(1.0, abs(float(logl.max()))):
        return (float(grid[i]), True) if flat_center is None else (flat_center, False)
    if i == 0 or i == len(grid) - 1:
        return float(grid[i]), True
    h = grid[1] - grid[0]
    denom = logl[i - 1] - 2.0 * logl[i] + logl[i + 1]
    if abs(denom) < 1e-300:
        est = grid[i]
    else:
        est = grid[i] + 0.5 * h * (logl[i - 1] - logl[i + 1]) / denom
    return float(np.clip(est, grid[0], grid[-1])), False


def _assert_refines_as_scalars(grid, logl, flat_center):
    est, edge = _refine(grid, logl, flat_center)
    with np.errstate(invalid="ignore", divide="ignore"):
        ref = [_scalar_refine(grid, logl[:, r], flat_center) for r in range(logl.shape[1])]
    assert edge.tolist() == [b for _, b in ref]
    assert est.tobytes() == np.array([e for e, _ in ref]).tobytes()
    for r, (e, b) in enumerate(ref):  # one curve at a time: the same estimate, None on a hit
        one = _refine(grid, logl[:, r], flat_center)
        assert (one is None) if b else (np.float64(one).tobytes() == np.float64(e).tobytes())


def test_refine_of_the_mle_cell_grids_is_the_scalar_refinement(monkeypatch):
    # the benchmark's mle cell (omega = delta = gamma = 1, decoder matched at
    # theta = 1, 41 grid points): every record's estimate at T = 5 and 150
    # is the scalar refinement's, bit for bit
    from cmsense import estimate
    blocks, refine = [], estimate._refine
    monkeypatch.setattr(estimate, "_refine",
                        lambda g, logl, flat_center=None: blocks.append((g, logl, flat_center))
                        or refine(g, logl, flat_center))
    gen = cascade_generators(two_level_model(omega=1.0, delta=1.0, gamma=1.0),
                             two_level_decoder(1.0, -1.0, 1.0))
    interrogation_study(gen, 1.0, [5.0, 150.0], 128, 2e-3, seed=1, n_grid=41)
    monkeypatch.undo()
    assert [b[1].shape for b in blocks] == [(41, 128)] * 2
    for grid, logl, center in blocks:
        _assert_refines_as_scalars(grid, logl, center)


@pytest.mark.parametrize("center", [None, 0.25])
def test_refine_of_flat_boundary_and_infinite_curves_is_the_scalar_refinement(center):
    grid = np.linspace(-1.0, 1.0, 9)
    ninf = -np.inf
    curves = [
        -(grid - 0.1234) ** 2,  # interior vertex
        np.zeros(9), np.full(9, -3.0), np.full(9, 1e13) + np.arange(9) * 1e-3,  # flat
        grid.copy(), -grid,  # maximal at the right, the left edge
        np.full(9, ninf),  # probability zero everywhere
        np.where(np.arange(9) == 4, 0.0, ninf),  # finite at one interior point
        np.where(np.arange(9) < 6, -(grid - 0.2) ** 2, ninf),  # -inf past the peak
        np.where(np.arange(9) == 3, ninf, -(grid - 0.3) ** 2),  # -inf beside the peak
        np.array([-1.0, -1.0, -1.0, 0.0, 1e-305, 0.0, -1.0, -1.0, -1.0]),  # |curvature| < 1e-300
    ]
    _assert_refines_as_scalars(grid, np.stack(curves, axis=1), center)
    _assert_refines_as_scalars(grid, np.empty((9, 0)), center)
