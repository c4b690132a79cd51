"""Brute-force ground truth at small bin counts.

Everything here works in the full time-bin Hilbert space with the
two-outcome truncation per bin, so comparisons against the production
routes are exact identities of the discretization, not continuum
asymptotics.  Deliberately slow and explicit; capped at 12 bins.

Layout: bin n (applied n-th, n = 1..N) occupies bit n-1 of the record
integer, and the global vector is the (2^N, D) amplitude matrix
flattened row-major (record major, system minor).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooManyBins
from .linalg import psd_sqrt
from .models import SensorModel
from .propagate import TimeGrid, cascade_generators, step_matrices

__all__ = [
    "BinnedState",
    "brute_global_state",
    "brute_env_state",
    "uhlmann_fidelity",
    "CountingDistribution",
    "brute_counting_distribution",
    "counting_fisher_exact",
]

_MAX_BINS = 12
_MAX_GLOBAL = 2 ** 14


@dataclass(eq=False)
class BinnedState:
    """State in the explicit time-bin space.

    kind "global": ``state`` is the D*2^N joint vector, unit norm;
    ``raw_norm`` is the norm of the un-normalized amplitude product
    (1 + O(N dt^2) completeness defect).
    kind "environment": ``state`` is the 2^N x 2^N reduced density
    matrix of the emission field, trace 1.
    """

    n_bins: int
    kind: str
    dim_sys: int
    state: np.ndarray
    raw_norm: float

    @property
    def amplitudes(self):
        if self.kind != "global":
            raise ValueError("amplitudes are defined for global states")
        return self.state.reshape(2 ** self.n_bins, self.dim_sys)


def _check_size(n_bins, dim):
    if n_bins > _MAX_BINS or dim * 2 ** n_bins > _MAX_GLOBAL:
        raise TooManyBins(
            f"N={n_bins}, D={dim}: exceeds N<={_MAX_BINS} or D*2^N<={_MAX_GLOBAL}"
        )


def _branches(ops, x0):
    """(2^N, m) rows: the start vector ``x0`` through the branch maps of ``ops``
    of every record, enumerated bin by bin in the record-integer layout."""
    a0, a1 = ops.per_bin(ops.a0), ops.per_bin(ops.a1)
    branch = x0[None, :].astype(complex)
    for k in range(ops.n_steps):
        branch = np.concatenate([branch @ a0[k].T, branch @ a1[k].T], axis=0)
    return branch


def brute_global_state(model: SensorModel, theta: float, n_bins: int, dt: float,
                       max_step: float = 1.0) -> BinnedState:
    """Explicit joint system+field vector after n_bins emission bins.

    The wide default max_step admits the coarse grids this oracle is
    meant for; it validates discrete-formula equivalence at any dt.  The
    branches start from ``model.initial_state`` as given.
    """
    _check_size(n_bins, model.dim)
    ops = step_matrices(cascade_generators(model), theta, TimeGrid(0.0, n_bins * dt, dt),
                        max_step)
    amp = _branches(ops, model.initial_state)
    raw_norm = float(np.linalg.norm(amp))
    return BinnedState(
        n_bins=n_bins, kind="global", dim_sys=model.dim,
        state=(amp / raw_norm).ravel(), raw_norm=raw_norm,
    )


def brute_env_state(model: SensorModel, theta: float, n_bins: int, dt: float,
                    max_step: float = 1.0) -> BinnedState:
    """Reduced density matrix of the emission field (system traced out)."""
    g = brute_global_state(model, theta, n_bins, dt, max_step)
    amp = g.amplitudes
    rho = amp @ amp.conj().T
    return BinnedState(
        n_bins=n_bins, kind="environment", dim_sys=model.dim,
        state=0.5 * (rho + rho.conj().T), raw_norm=g.raw_norm,
    )


def uhlmann_fidelity(rho1, rho2):
    """tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) for trace-1 PSD matrices.

    Eigenvalues below 1e-13 of the largest are zeroed before the outer
    square root: the emission states here are low-rank, and sqrt of
    eigensolver noise on the null space would otherwise pollute the
    sum at the 1e-7 level.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise DimensionMismatch(f"shapes {rho1.shape} vs {rho2.shape}")
    s = psd_sqrt(rho1)
    w = np.linalg.eigvalsh(s @ rho2 @ s)
    w = np.clip(w, 0.0, None)
    w[w < 1e-13 * w.max(initial=0.0)] = 0.0
    return float(np.sqrt(w).sum())


@dataclass(eq=False)
class CountingDistribution:
    """Exhaustive record probabilities, keyed by the record integer, whose
    bit n is a click in bin n.

    ``probs[r]`` is normalized; ``raw_defect`` is (raw sum) - 1, the
    accumulated per-bin completeness defect.
    """

    n_bins: int
    probs: np.ndarray
    raw_defect: float


def brute_counting_distribution(model: SensorModel, theta: float, n_bins: int,
                                dt: float, dec=None,
                                max_step: float = 1.0) -> CountingDistribution:
    """All 2^N record probabilities by conditional Kraus products.

    With a decoder the cascaded joint pair is used, so this is the
    exact distribution that trajectory sampling draws from.
    """
    gen = cascade_generators(model, dec)
    _check_size(n_bins, gen.dim)
    ops = step_matrices(gen, theta, TimeGrid(0.0, n_bins * dt, dt), max_step)
    raw = ops.weight(_branches(ops, ops.x0))
    total = float(raw.sum())
    return CountingDistribution(n_bins=n_bins, probs=raw / total,
                                raw_defect=total - 1.0)


def counting_fisher_exact(model: SensorModel, theta: float, n_bins: int,
                          dt: float, dec=None, theta_step: float = 1e-3,
                          max_step: float = 1.0):
    """Exact Fisher information of the record by central differences."""
    p0 = brute_counting_distribution(model, theta, n_bins, dt, dec, max_step).probs
    pp = brute_counting_distribution(model, theta + theta_step, n_bins, dt,
                                     dec, max_step).probs
    pm = brute_counting_distribution(model, theta - theta_step, n_bins, dt,
                                     dec, max_step).probs
    dp = (pp - pm) / (2.0 * theta_step)
    mask = p0 > 1e-300
    return float(np.sum(dp[mask] ** 2 / p0[mask]))
