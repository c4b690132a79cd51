"""Maximum-likelihood estimation from counting records.

The estimator is deliberately plain: replay the record's
log-likelihood on a uniform parameter grid, take the maximum, refine
with a parabola through the top three points.  Replays are cheap and
the curve can be multi-modal at short interrogation times, where
derivative-based optimizers mislead.  Grid density and width are
explicit outputs, not hidden tuning.
"""

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from .cascade import (
    CascadeGenerators,
    FisherEstimate,
    fisher_from_trajectories,
    replay_records,
    sample_records,
)
from .errors import CmsenseError, GridTooNarrow
from .propagate import TimeGrid

__all__ = [
    "LikelihoodCurve",
    "likelihood_curve",
    "default_grid_width",
    "InterrogationRow",
    "interrogation_study",
    "study_table",
]

_FLAT_TOL = 1e-12
_GRID_WIDTH_CAP = 2.0


@dataclass(eq=False)
class LikelihoodCurve:
    theta_grid: np.ndarray
    log_likelihoods: np.ndarray
    argmax: float


def _refine(grid, logl, flat_center=None):
    """Grid argmax with parabolic refinement of each column of the
    (n_grid, n_records) block ``logl``: (estimates, boundary), where a
    boundary hit flags its column and estimates its grid argmax.  A flat
    column (zero-information record) gives flat_center when given,
    bypassing the boundary check, else is a boundary hit.  One curve
    (n_grid,) gives its estimate, or None for a boundary hit.  Each column
    takes the arithmetic of a scalar parabola through its top three points,
    so the estimates are those of one curve at a time, bit for bit.
    """
    if logl.ndim == 1:
        est, edge = _refine(grid, logl[:, None], flat_center)
        return None if edge[0] else float(est[0])
    n, cols, top = len(grid), np.arange(logl.shape[1]), logl.max(axis=0)
    i = np.argmax(logl, axis=0)
    # each column's interior top point and its neighbours (a grid of fewer
    # than three points has none: every column is flat or a boundary hit)
    j = np.clip(i, 1, n - 2)
    a, c, e = (logl[np.clip(j + o, 0, n - 1), cols] for o in (-1, 0, 1))
    h = grid[min(1, n - 1)] - grid[0]
    with np.errstate(invalid="ignore", divide="ignore"):  # -inf curves give NaN, as scalars do
        flat = top - logl.min(axis=0) < _FLAT_TOL * np.maximum(1.0, np.abs(top))
        denom = a - 2.0 * c + e
        est = np.where(np.abs(denom) < 1e-300, grid[j], grid[j] + 0.5 * h * (a - e) / denom)
    edge = np.where(flat, flat_center is None, (i == 0) | (i == n - 1))
    est = np.where(flat, np.nan if flat_center is None else flat_center,
                   np.clip(est, grid[0], grid[-1]))
    est[edge] = grid[i[edge]]
    return est, edge


def likelihood_curve(gen: CascadeGenerators, record, theta_grid,
                     grid: TimeGrid) -> LikelihoodCurve:
    """Log-likelihood of one record (its click-index array) over
    theta_grid, with refined argmax."""
    theta_grid = np.asarray(theta_grid, dtype=float)
    logl = replay_records(gen, theta_grid, [record], grid)[:, 0]
    est = _refine(theta_grid, logl,
                  flat_center=float(theta_grid[len(theta_grid) // 2]))
    if est is None:
        raise GridTooNarrow(
            f"likelihood maximal at grid boundary [{theta_grid[0]}, {theta_grid[-1]}]"
        )
    return LikelihoodCurve(theta_grid=theta_grid, log_likelihoods=logl, argmax=est)


def default_grid_width(fisher_value, t_end):
    """Half-width heuristic 5/sqrt(F), capped for near-zero information.

    F is the Fisher information of a whole record of duration t_end, so
    1/sqrt(F) is the single-record standard deviation.
    """
    f = max(fisher_value, 0.0)
    if f <= 0.0:
        return _GRID_WIDTH_CAP
    return float(min(5.0 / np.sqrt(f), _GRID_WIDTH_CAP))


@dataclass(eq=False)
class InterrogationRow:
    t_end: float
    inv_var_per_k: float
    n_records: int
    seed: int
    mean_estimate: float
    variance: float
    bias: float
    n_boundary: int
    grid_width: float
    fisher_estimate: FisherEstimate
    grid_s: float  # seconds of the likelihood-grid replay
    # share of the records whose estimate is the modal estimate: records
    # that tie (every empty record has one likelihood curve) make 1/Var
    # measure how many records tie, not the estimator's precision
    tied_frac: float

    @property
    def fisher(self):
        return self.fisher_estimate.value

    @property
    def fisher_err(self):
        return self.fisher_estimate.std_error


def interrogation_study(gen, theta_true: float, t_list: Sequence[float],
                        n_records: int, dt: float, seed: int = 0, n_grid: int = 41,
                        fisher_n_traj: Optional[int] = None) -> List[InterrogationRow]:
    """Repeated-interrogation variance study.

    For each interrogation time T: estimate the record Fisher
    information, draw n_records independent records at theta_true,
    estimate theta record-by-record on a shared grid of half-width
    ``default_grid_width``, and report 1/(n_records * Var) next to the
    Fisher value.  The grid replay builds the tables of a static model's
    whole grid in one pass and replays each distinct record once
    (``replay_records``).  ``gen`` is either a fixed generator set or a
    callable T -> generators (needed when the drive pulses depend on T).

    Records whose likelihood peaks on the grid boundary are estimated
    at the boundary and counted in n_boundary rather than raised, so a
    handful of outliers cannot abort a long study.  tied_frac is the
    share of records whose estimate equals the modal estimate.  The
    variance needs n_records >= 2; fewer raise CmsenseError.
    """
    if n_records < 2:
        raise CmsenseError(
            f"n_records = {n_records}: a variance study needs at least two records")
    rows = []
    for it, t_end in enumerate(t_list):
        g = gen(t_end) if callable(gen) else gen
        tgrid = TimeGrid(0.0, float(t_end), dt)
        fi = fisher_from_trajectories(
            g, theta_true, tgrid, fisher_n_traj or min(n_records, 2000),
            seed=seed + 1009 * it + 1,
        )
        indices, _, _ = sample_records(
            g, theta_true, tgrid, n_records, seed=seed + 1009 * it,
        )
        width = default_grid_width(fi.value, t_end)
        tgrid_theta = theta_true + np.linspace(-width, width, n_grid)
        t0 = perf_counter()
        logl = replay_records(g, tgrid_theta, indices, tgrid)  # (n_grid, n_records)
        grid_s = perf_counter() - t0
        ests, edge = _refine(tgrid_theta, logl, flat_center=theta_true)
        n_boundary = int(edge.sum())
        tied = np.unique(ests, return_counts=True)[1].max() / n_records
        var = float(ests.var(ddof=1))
        # precision per interrogation: Var(mean of K) = var/K, so
        # 1/(K * Var(mean)) = 1/var reduces to the single-record inverse
        # variance, directly comparable to the per-record Fisher value.
        inv_var = float(1.0 / var) if var > 0 else float("inf")
        rows.append(InterrogationRow(
            t_end=float(t_end), inv_var_per_k=inv_var, n_records=n_records, seed=seed,
            mean_estimate=float(ests.mean()), variance=var,
            bias=float(ests.mean() - theta_true), n_boundary=n_boundary,
            grid_width=width, fisher_estimate=fi, grid_s=grid_s, tied_frac=float(tied),
        ))
    return rows


def study_table(rows: List[InterrogationRow]):
    """Rows as plain dicts in the study CSV column order."""
    return [
        {
            "T": r.t_end,
            "inv_var_per_K": r.inv_var_per_k,
            "fisher": r.fisher,
            "fisher_err": r.fisher_err,
            "K": r.n_records,
            "seed": r.seed,
            "mean_estimate": r.mean_estimate,
            "bias": r.bias,
            "n_boundary": r.n_boundary,
            "grid_width": r.grid_width,
        }
        for r in rows
    ]
