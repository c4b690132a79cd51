"""Trajectory engines for photon-counting records.

A record's likelihood is the trace of the record-conditioned state, so
drawing a record and replaying a given one are the same product of
per-bin {no click, click} maps: sampling draws each outcome, replay is
handed it.  Two cores carry both directions:

* step core (``run_steps``): a batch of records advanced bin by bin,
  either as pure states under the Kraus pair (no extra Lindblad
  channels, unit detector efficiency) or as row-major vectorized
  densities under the superoperators (loss, dephasing, finite
  efficiency).  Replay advances a whole set of parameter values in the
  same pass: the state carries a leading θ axis, (Θ, records, D), every
  θ reads the same click flags, and each bin is one batched product per
  branch; sampling is the case Θ = 1,
* segment core (``run_segments``) for static pure generators:
  diagonalize the no-click matrix once and jump between clicks by
  eigenvalue powers; the next click is bisected on the survival
  function from a drawn log u, or read from the given record.  Costs
  O(number of clicks) per trajectory instead of O(number of bins).

Sampling draws clicks with the raw probability p1 = eta * |M1 psi|^2
per bin; log-likelihoods accumulate raw branch weights, so exp(logL)
is the trace of the record-conditioned unnormalized state.  Every
trajectory owns a counter-based RNG stream keyed by (seed, index), so
results do not depend on how the records are split into chunks.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ClickProbabilityOverflow

_BLOCK = 4096
_U_FLOATS = 1 << 20  # uniforms drawn ahead per batch of records
_P1_MAX = 0.1


@dataclass(eq=False)
class StepOps:
    """Per-bin operators of a cascaded counting model.

    ``m0``/``m1`` are (bins, D, D) Kraus stacks with one bin shared by
    every step when ``static``, else n_steps bins.  ``s0``/``s1`` are
    the matching no-click / click superoperator stacks on row-major
    vectorized densities (built when needed; include loss, dephasing
    and the (1 - eta) feed-through).
    """

    dim: int
    n_steps: int
    dt: float
    eta: float
    static: bool
    m0: np.ndarray
    m1: np.ndarray
    s0: Optional[np.ndarray] = None
    s1: Optional[np.ndarray] = None
    init_vec: Optional[np.ndarray] = None
    init_rho: Optional[np.ndarray] = None

    @property
    def pure_ok(self):
        return self.s0 is None and self.eta == 1.0 and self.init_vec is not None

    def per_bin(self, a):
        """The stack ``a`` with one entry per step (static stacks broadcast)."""
        return np.broadcast_to(a, (self.n_steps,) + a.shape[1:])

    def branch_maps(self):
        """(a0, a1, x0, weight, root) of the step core: no-click and click
        stacks, the initial vector, the branch weight of a batch of
        vectors and the root of that weight that renormalizes them.
        Pure: Kraus pair, |x|^2, sqrt; density: superoperators, x.vec(1)."""
        if self.pure_ok:
            weight = lambda x: np.einsum("bi,bi->b", x, x.conj()).real
            return self.m0, self.m1, self.init_vec, weight, np.sqrt
        tv = np.eye(self.dim, dtype=complex).ravel()
        return self.s0, self.s1, self.init_rho.ravel(), lambda x: (x @ tv).real, lambda w: w


def _streams(indices, seed):
    return [np.random.Generator(np.random.Philox(key=[seed, int(i)])) for i in indices]


def _check_p1(p1max, k, dt):
    if p1max > _P1_MAX:
        raise ClickProbabilityOverflow(
            f"click probability {p1max:.3g} > {_P1_MAX} at bin {k} (dt={dt:g}); "
            "reduce the time step"
        )


def _click_rows(x, sel, a1t):
    """``x[..., sel, :] @ a1t``, bit for bit those rows of ``x @ a1t``: a
    single row is doubled so that BLAS takes the same gemm path, not gemv."""
    rows = x[..., sel, :] if len(sel) > 1 else x[..., np.repeat(sel, 2), :]
    return (rows @ a1t)[..., :len(sel), :]


def _bin_major(ops, i):
    """Branch map ``i`` of every θ as per-bin transposed tables: (n, D, D)
    for one θ, else (n, Θ, D, D) (static tables broadcast, not copied)."""
    tabs = [o.branch_maps()[i] for o in ops]
    s = tabs[0] if len(tabs) == 1 else np.stack(tabs, axis=1)
    return np.swapaxes(np.broadcast_to(s, (ops[0].n_steps,) + s.shape[1:]), -1, -2)


def run_steps(ops, indices, seed, click_indices=None):
    """Advance a batch of records bin by bin through the branch maps of
    every θ in ``ops`` (a list of StepOps on one grid) at once.

    With ``click_indices`` None, draws the records of trajectory
    ``indices`` from their (seed, index) streams (one θ only); else
    replays the given click-index arrays, shared by every θ.  The state
    is (Θ, B, D), or (B, D) for one θ: a θ axis of length 1 costs a few
    microseconds per bin, which replays of few records pay on every bin.
    Returns (list of click-index arrays, logL (Θ, B)).
    """
    _, _, x0, weight, root = ops[0].branch_maps()
    n, nb, nt = ops[0].n_steps, len(indices), len(ops)
    a0t, a1t = _bin_major(ops, 0), _bin_major(ops, 1)
    lead = (nb,) if nt == 1 else (nt, nb)
    w_of = weight if nt == 1 else lambda y: weight(y.reshape(nt * nb, -1)).reshape(lead)
    sampling = click_indices is None
    hits = np.zeros((n, nb), dtype=bool)  # bin-major: one contiguous row per bin
    if sampling:
        gens = _streams(indices, seed)
        block = max(1, min(_BLOCK, _U_FLOATS // max(nb, 1)))
    else:
        for r, h in enumerate(click_indices):
            hits[h, r] = True
    x = np.tile(x0, lead + (1,)).astype(complex)
    logl = np.zeros(lead)
    for k in range(n):
        hit = hits[k]
        if sampling:
            if k % block == 0:
                # filled in place, one row per record: stacking a list of
                # per-record draws holds the block twice, which set the
                # peak RSS of the sampling runs
                ut = np.empty((nb, min(block, n - k)))
                for g, row in zip(gens, ut):
                    g.random(out=row)
                u = ut.T
            cs = x @ a1t[k]
            b1 = weight(cs)
            _check_p1(float(b1.max(initial=0.0)), k, ops[0].dt)
            np.less(u[k % block], b1, out=hit)
        out = x @ a0t[k]
        sel = np.flatnonzero(hit)
        if len(sel):
            out[..., sel, :] = cs[sel] if sampling else _click_rows(x, sel, a1t[k])
        w = w_of(out)
        # in place out / root(w): numpy divides complex by real as a
        # multiply by the reciprocal, so the bits are the same
        out.view(np.float64)[...] *= (1.0 / root(w))[..., None]
        x = out
        logl += np.log(w)
    if sampling:
        rec, k = np.nonzero(hits.T)
        click_indices = np.split(k, np.cumsum(np.bincount(rec, minlength=nb))[:-1])
    return click_indices, logl.reshape(nt, nb)


@dataclass(eq=False)
class EigStepper:
    """Eigendecomposition of a static no-click matrix M0 = V diag(lam) Vi."""

    v: np.ndarray
    lam: np.ndarray
    vi: np.ndarray
    log_lam: np.ndarray
    log_mag_max: float


def eig_stepper(m0, cond_max=1e8, resid_tol=1e-9):
    """Diagonalize M0; returns None when the basis is too ill-conditioned."""
    lam, v = np.linalg.eig(m0)
    s = np.linalg.svd(v, compute_uv=False)
    if s[0] / s[-1] > cond_max:
        return None
    vi = np.linalg.inv(v)
    if np.abs(v @ np.diag(lam) @ vi - m0).max() > resid_tol * max(1.0, np.abs(m0).max()):
        return None
    log_lam = np.log(lam.astype(complex))
    return EigStepper(v=v, lam=lam, vi=vi, log_lam=log_lam,
                      log_mag_max=float(log_lam.real.max()))


def _propagate_scaled(eig, w, j):
    """V (lam^j * w) scaled by |lam_max|^-j; returns (vector, log scale)."""
    comp = np.exp(j * (eig.log_lam - eig.log_mag_max))
    return eig.v @ (comp * w), j * eig.log_mag_max


def _log_survival(eig, w, j):
    vec, ls = _propagate_scaled(eig, w, j)
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        return -np.inf
    return 2.0 * (ls + np.log(nrm))


def _first_click(eig, w, log_u, n_rem):
    """Smallest j in [1, n_rem] with log S(j) <= log u, or None."""
    if _log_survival(eig, w, n_rem) > log_u:
        return None
    lo, hi = 0, n_rem
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _log_survival(eig, w, mid) <= log_u:
            hi = mid
        else:
            lo = mid
    return hi


def run_segments(ops: StepOps, eig: EigStepper, indices, seed, click_indices=None):
    """Advance records click to click under static pure ops.

    With ``click_indices`` None, draws the records of trajectory
    ``indices`` (each next click bisected from a drawn log u); else
    replays the given click-index arrays.  Returns (list of click-index
    arrays, logL array).
    """
    n = ops.n_steps
    m1 = ops.m1[0]
    sampling = click_indices is None
    gens = _streams(indices, seed) if sampling else None
    out_idx, out_logl = [], []
    for r in range(len(indices)):
        if not sampling:
            given = iter(click_indices[r])
        psi = ops.init_vec.astype(complex)
        logl = 0.0
        pos = 0
        hits = []
        while pos < n:
            w = eig.vi @ psi
            if sampling:
                j = _first_click(eig, w, np.log1p(-gens[r].random()), n - pos)
            else:
                h = next(given, None)
                j = None if h is None else int(h) - pos + 1
            if j is None:
                logl += _log_survival(eig, w, n - pos)
                break
            vec, ls = _propagate_scaled(eig, w, j - 1)
            nrm = np.linalg.norm(vec)
            logl += 2.0 * (ls + np.log(nrm))
            cs = m1 @ (vec / nrm)
            b1 = float(np.vdot(cs, cs).real)
            if sampling:
                _check_p1(b1, pos + j - 1, ops.dt)
            logl += np.log(b1)
            psi = cs / np.sqrt(b1)
            hits.append(pos + j - 1)
            pos += j
        out_idx.append(np.asarray(hits, dtype=np.int64))
        out_logl.append(logl)
    return out_idx, np.asarray(out_logl)


def clicks_to_indices(clicks):
    return [np.flatnonzero(row).astype(np.int64) for row in clicks]


def indices_to_clicks(click_indices, n_steps):
    out = np.zeros((len(click_indices), n_steps), dtype=np.uint8)
    for r, hits in enumerate(click_indices):
        out[r, hits] = 1
    return out
