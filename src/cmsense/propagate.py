"""Discrete-time propagation engines.

The emission field is built from a per-bin Kraus pair

    a0 = 1 - i H(t) dt - (1/2) J^dag J dt,      a1 = sqrt(dt) J,

with time-dependent operators sampled at the left endpoint of each
bin.  All higher-level quantities (master equation, generalized
two-parameter state, decoder synthesis, cascade sampling, brute-force
oracles) are defined on exactly this discretization, so equivalence
tests between routes are exact rather than asymptotic.

The pair is complete only to O(dt^2) per bin; raw traces therefore
drift by O(T dt) over a propagation.  That defect is left visible
(no hidden renormalization) and is cancelled downstream by defining
fidelities on unit-trace states.

All propagation is by products of per-bin maps (``propagate_linear``);
densities in row-major vec, where mu -> A mu B^dag is A (x) conj(B).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import StepTooLarge, TraceDrift, format_excess
from .models import SensorModel, operator_stacks

__all__ = [
    "TimeGrid",
    "pair_table",
    "propagate_linear",
    "evolve_density",
    "evolve_generalized",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid; n_steps * dt spans [t_start, t_end] exactly."""

    t_start: float
    t_end: float
    dt: float
    n_steps: int = field(init=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        span = self.t_end - self.t_start
        n = int(round(span / self.dt))
        if n < 0 or abs(n * self.dt - span) > 1e-12 * max(1.0, abs(span)):
            raise ValueError(
                f"grid span {span} is not an integer multiple of dt={self.dt}"
            )
        object.__setattr__(self, "n_steps", n)

    @property
    def times(self):
        """All n_steps+1 grid times including both ends."""
        return self.t_start + self.dt * np.arange(self.n_steps + 1)

    @property
    def left_times(self):
        """Left bin endpoints where operators are sampled."""
        return self.t_start + self.dt * np.arange(self.n_steps)


_BLOCK = 256


def _batched_kron(a, b):
    """np.kron of each matrix pair of two stacks (same multiply, same bits)."""
    n, da, db = a.shape[0], a.shape[1], b.shape[1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, da * db, da * db)


def _guard(h, decay, dt, max_step, ts):
    """Raise StepTooLarge at the first bin where dt*max(|H|, |decay|) in
    the spectral norm exceeds max_step.  The Frobenius norm bounds it
    from above, so only the bins that norm flags get the exact one."""
    load = dt * np.maximum(np.linalg.norm(h, axis=(1, 2)), np.linalg.norm(decay, axis=(1, 2)))
    flagged = np.flatnonzero(load > max_step)
    if not len(flagged):
        return
    load = dt * np.maximum(np.linalg.norm(h[flagged], 2, axis=(1, 2)),
                           np.linalg.norm(decay[flagged], 2, axis=(1, 2)))
    bad = np.flatnonzero(load > max_step)
    if len(bad):
        raise StepTooLarge(
            f"dt*max(|H|,|J^dag J|) = {format_excess(load[bad[0]], max_step)} "
            f"exceeds {max_step} "
            f"at t={ts[flagged[bad[0]]]:.4g}; refine dt or widen max_step explicitly"
        )


def _kraus_stacks(h, j, dt, max_step, ts, extra=()):
    """Guarded Kraus stacks of per-bin (H, J) stacks sampled at ``ts``:

        a0 = 1 - i H dt - (1/2) (J^dag J + sum_l L_l^dag L_l) dt,   a1 = sqrt(dt) J,

    with ``extra`` the constant undetected channels L_l.
    """
    decay = np.einsum("nji,njk->nik", j.conj(), j)
    for l in extra:
        decay = decay + (l.conj().T @ l)[None]
    _guard(h, decay, dt, max_step, ts)
    eye = np.eye(h.shape[-1], dtype=complex)
    return eye - 1j * dt * h - 0.5 * dt * decay, np.sqrt(dt) * j


def _bin_times(grid, static):
    """Left endpoints at which operators are sampled: t_start alone when static."""
    return grid.t_start + grid.dt * np.arange(1 if static else grid.n_steps)


class PairTable:
    """Kraus pairs tabulated over a grid.

    For time-independent models a single pair is stored and shared by
    every step; otherwise a0/a1 have one entry per bin.
    """

    def __init__(self, a0, a1, static):
        self.a0 = a0
        self.a1 = a1
        self.static = static

    def at(self, k):
        if self.static:
            return self.a0[0], self.a1[0]
        return self.a0[k], self.a1[k]

    def transfer(self, other):
        """Per-bin maps mu -> sum_s A^s mu B^s^dag in row-major vec for
        :func:`propagate_linear`, with A from this table and B from ``other``."""
        maps = lambda lo, hi: (_batched_kron(self.a0[lo:hi], other.a0[lo:hi].conj())
                               + _batched_kron(self.a1[lo:hi], other.a1[lo:hi].conj()))
        return maps(0, 1)[0] if self.static else maps


def pair_table(model: SensorModel, theta: float, grid: TimeGrid, max_step: float = 0.05):
    """The guarded Kraus pairs of ``model`` at theta over the bins of ``grid``."""
    static = not model.time_dependent
    ts = _bin_times(grid, static)
    return PairTable(*_kraus_stacks(*operator_stacks(model, theta, ts), grid.dt, max_step, ts),
                     static=static)


def _tree_product(s):
    """s[-1] @ ... @ s[0] by pairwise reduction, keeping time order."""
    while len(s) > 1:
        prod = s[1::2] @ s[0:len(s) - 1:2]
        s = np.concatenate([prod, s[-1:]]) if len(s) % 2 else prod
    return s[0]


def propagate_linear(maps, x0, n_steps, series=False):
    """Apply x_{k+1} = M_k x_k for k = 0..n_steps-1, starting from x0.

    ``maps`` is one (m, m) matrix for every bin (static model), an
    (n_steps, m, m) table, or a builder ``maps(lo, hi)`` of the table
    of bins lo..hi-1, called ``_BLOCK`` bins at a time (bounding the
    transient memory of time-dependent propagation).  Returns
    x_{n_steps} (a matrix power, or tree-reduced products per block),
    or with ``series=True`` all n_steps + 1 states, one matvec per bin.
    """
    x = np.asarray(x0, dtype=complex)
    if not callable(maps):
        table = np.asarray(maps)
        if table.ndim == 2:
            if not series:
                return np.linalg.matrix_power(table, n_steps) @ x
            table = np.broadcast_to(table, (n_steps,) + table.shape)
        maps = lambda lo, hi: table[lo:hi]
    if not series:
        for lo in range(0, n_steps, _BLOCK):
            x = _tree_product(maps(lo, min(lo + _BLOCK, n_steps))) @ x
        return x
    # preallocated: collecting per-bin arrays in a list fragments the heap
    out = np.empty((n_steps + 1,) + x.shape, dtype=complex)
    out[0] = x
    for lo in range(0, n_steps, _BLOCK):
        for k, m in enumerate(maps(lo, min(lo + _BLOCK, n_steps)), lo + 1):
            out[k] = x = m @ x
    return out


def evolve_density(model: SensorModel, theta: float, grid: TimeGrid,
                   max_step: float = 0.05, trace_tol: float = 1e-2):
    """Master-equation evolution by repeated Kraus application.

    Returns the full (n_steps+1, D, D) trajectory of density matrices.
    Trace is monitored, not renormalized; the O(T dt) completeness
    drift of the first-order pair is expected and tolerated up to
    ``trace_tol``, beyond which TraceDrift signals an unstable grid.
    """
    tab = pair_table(model, theta, grid, max_step)
    psi = model.initial_state
    out = propagate_linear(tab.transfer(tab), np.outer(psi, psi.conj()).ravel(),
                           grid.n_steps, series=True).reshape(-1, model.dim, model.dim)
    drift = np.abs(np.trace(out, axis1=1, axis2=2).real - 1.0)
    bad = np.flatnonzero(drift[1:] > trace_tol) + 1
    if len(bad):
        k = bad[0]
        raise TraceDrift(f"|tr rho - 1| = {drift[k]:.3g} at step {k} "
                         f"(t={grid.t_start + k * grid.dt:.4g}); refine dt")
    return out


def evolve_generalized(model: SensorModel, theta1: float, theta2: float,
                       grid: TimeGrid, max_step: float = 0.05,
                       tables: Optional[tuple] = None):
    """The generalized density operator mu_{theta1,theta2}(T): mu(0) =
    rho_S(0) propagated under mu -> sum_s A^s(theta1) mu A^s(theta2)^dag.

    At theta1 = theta2 this is exactly the evolve_density update.
    ``tables`` lets callers reuse precomputed PairTables for the two
    parameter values (an optimization for finite-difference sweeps).
    """
    if tables is None:
        ta = pair_table(model, theta1, grid, max_step)
        tb = ta if theta2 == theta1 else pair_table(model, theta2, grid, max_step)
    else:
        ta, tb = tables
    mu0 = np.outer(model.initial_state, model.initial_state.conj())
    return propagate_linear(ta.transfer(tb), mu0.ravel(), grid.n_steps).reshape(mu0.shape)
