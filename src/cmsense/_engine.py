"""Trajectory engines for photon-counting records.

A record's likelihood is the trace of the record-conditioned state, so
drawing a record and replaying a given one are the same product of
per-bin {no click, click} maps: sampling draws each outcome, replay is
handed it.  Both cores work on ``StepOps.branch_maps()``: Kraus pairs on
pure states (no extra Lindblad channels, unit detector efficiency), else
superoperators on row-major vectorized densities (loss, dephasing,
finite efficiency).

* step core (``run_steps``): a batch of records advanced bin by bin; it
  carries time-dependent models and cross-checks the segment core,
* segment core (``run_segments``) for every static model: a run of g
  no-click bins is the product of the rescaled binary powers a0^(2^i)
  for the bits of g, one batched product per bit over the records whose
  gap has it set, so a record costs O((clicks + 1) log2 n) products
  instead of n, with no eigendecomposition and no length threshold.
  Replay advances a whole θ set at once, the state (Θ, records, D);
  sampling thins the step core's own uniforms and so draws its records.

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

_U_FLOATS = 1 << 20  # uniforms drawn ahead per batch of records
_P1_MAX = 0.1
_LOW_BITS = 8  # a sampling gap below 2^_LOW_BITS bins is one table lookup


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
        """(a0, a1, x0, weight, root) of both cores: no-click and click
        stacks, the initial vector, the branch weight of a batch of
        vectors and the root of that weight that renormalizes them.
        Pure: Kraus pair, |x|^2, sqrt; density: superoperators, x.vec(1)."""
        if self.pure_ok:
            weight = lambda x: np.einsum("bi,bi->b", x, x.conj()).real
            return self.m0, self.m1, self.init_vec, weight, np.sqrt
        tv = np.eye(self.dim, dtype=complex).ravel()
        return self.s0, self.s1, self.init_rho.ravel(), lambda x: (x @ tv).real, lambda w: w


def _streams(indices, seed):
    return [np.random.Philox(key=[seed, int(i)]) for i in indices]


def _check_p1(p1max, k, dt):
    if p1max > _P1_MAX:
        raise ClickProbabilityOverflow(
            f"click probability {p1max:.3g} > {_P1_MAX} at bin {k} (dt={dt:g}); "
            "reduce the time step"
        )


def _times_rows(x, sel, a):
    """``x[..., sel, :] @ a``, bit for bit those rows of ``x @ a``: a single
    row is doubled so that BLAS takes the same gemm path, not gemv."""
    rows = x[..., sel, :] if len(sel) > 1 else x[..., np.repeat(sel, 2), :]
    return (rows @ a)[..., :len(sel), :]


def run_steps(ops, indices, seed, click_indices=None):
    """Advance a batch of records bin by bin through the branch maps of
    ``ops``: with ``click_indices`` None, draws the records of trajectory
    ``indices`` from their (seed, index) streams, else replays the given
    click-index arrays.  Returns (list of click-index arrays, logL (B,)).
    """
    a0, a1, x0, weight, root = ops.branch_maps()
    n, nb = ops.n_steps, len(indices)
    a0t, a1t = (np.swapaxes(ops.per_bin(a), -1, -2) for a in (a0, a1))
    sampling = click_indices is None
    hits = np.zeros((n, nb), dtype=bool)  # bin-major: one contiguous row per bin
    if sampling:
        gens = [np.random.Generator(b) for b in _streams(indices, seed)]
        block = max(1, _U_FLOATS // max(nb, 1))
    else:
        for r, h in enumerate(click_indices):
            hits[h, r] = True
    x = np.tile(x0, (nb, 1)).astype(complex)
    logl = np.zeros(nb)
    for k in range(n):
        hit = hits[k]
        if sampling:
            if k % block == 0:
                # filled in place: a stacked list of draws doubles peak RSS
                ut = np.empty((nb, min(block, n - k)))
                for g, row in zip(gens, ut):
                    g.random(out=row)
                u = ut.T
            cs = x @ a1t[k]
            b1 = weight(cs)
            _check_p1(float(b1.max(initial=0.0)), k, ops.dt)
            np.less(u[k % block], b1, out=hit)
        out = x @ a0t[k]
        sel = np.flatnonzero(hit)
        if len(sel):
            out[sel] = cs[sel] if sampling else _times_rows(x, sel, a1t[k])
        w = weight(out)
        # in place out / root(w): numpy divides complex by real as a
        # multiply by the reciprocal, so the bits are the same
        out.view(np.float64)[...] *= (1.0 / root(w))[..., None]
        x = out
        logl += np.log(w)
    if sampling:
        rec, k = np.nonzero(hits.T)
        click_indices = np.split(k, np.cumsum(np.bincount(rec, minlength=nb))[:-1])
    return click_indices, logl


def _padded(rows, fill):
    """Ragged 1-D arrays as the rows of one array padded with ``fill``,
    and their lengths."""
    counts = np.array([len(a) for a in rows], dtype=np.int64)
    out = np.full((len(rows), counts.max(initial=0)), fill)
    for r, a in enumerate(rows):
        out[r, :len(a)] = a
    return out, counts


class _Segments:
    """Static maps of a θ stack: the transposed click map (Θ, D, D) and the
    binary no-click powers a0^(2^i) / c_i with their log weight scales."""

    def __init__(self, ops):
        _, _, x0, self.weight, self.root = ops[0].branch_maps()
        self.initial = lambda nb: np.tile(x0, (len(ops), nb, 1)).astype(complex)
        tab = lambda i: np.ascontiguousarray(
            np.swapaxes(np.stack([o.branch_maps()[i][0] for o in ops]), -1, -2))
        self.a1t = tab(1)
        # weight of c x over weight of x: c^2 for pure states, c for densities
        deg = 2.0 if ops[0].pure_ok else 1.0
        p, s = tab(0), np.zeros(len(ops))
        self.powers = [(p, s)]
        for _ in range(1, ops[0].n_steps.bit_length()):
            p = p @ p
            # exact power-of-two rescaling keeps the powers finite over any
            # record length and leaves their bits (and symmetries) intact
            e = np.frexp(np.abs(p).max(axis=(-2, -1)))[1]
            p = p * np.ldexp(1.0, -e)[:, None, None]
            s = 2.0 * s + deg * np.log(2.0) * e
            self.powers.append((p, s))

    def apply(self, x, sel, a, scale=0.0, logl=None):
        """Rows ``sel`` of the state (Θ, B, D) through the map ``a``,
        renormalized; adds log weight + ``scale`` to ``logl`` when given."""
        if not len(sel):
            return
        y = _times_rows(x, sel, a)
        w = self.weight(y.reshape(-1, y.shape[-1])).reshape(y.shape[:-1])
        x[:, sel] = y / self.root(w)[..., None]
        if logl is not None:
            logl[:, sel] += np.log(w) + np.asarray(scale)[..., None]

    def no_clicks(self, x, rows, gaps, logl=None, first=0):
        """Advance rows ``rows`` by ``gaps`` no-click bins: each row whose
        gap has bit i >= ``first`` set takes power i, one product per bit."""
        for i in range(first, int(gaps.max(initial=0)).bit_length()):
            p, s = self.powers[i]
            self.apply(x, rows[(gaps >> i) & 1 == 1], p, s, logl)


def _replay_segments(seg, click_indices, n):
    """logL (Θ, B) of the given records: per click ordinal, the no-click
    run up to the click (or to the end), then the click map."""
    ends, counts = _padded([np.append(h, n) for h in click_indices], n)
    gaps = np.diff(ends, axis=1, prepend=-1) - 1
    x = seg.initial(len(ends))
    logl = np.zeros(x.shape[:2])
    for j in range(ends.shape[1]):
        rows = np.flatnonzero(counts > j)
        seg.no_clicks(x, rows, gaps[rows, j], logl)
        seg.apply(x, rows[counts[rows] > j + 1], seg.a1t, 0.0, logl)
    return logl


def _thin(seg, ops, indices, seed):
    """Draw records by thinning.  The step core clicks at bin k iff
    u_k < p1_k, and p1_k <= eta |M1|_2^2, so only the bins whose uniform
    lies below that bound are candidates: the state is advanced to each
    one and p1 evaluated there.  A bound above _P1_MAX makes every bin a
    candidate, so the guard sees the step core's bins in order.  Returns
    (list of click-index arrays, number of candidates)."""
    n, nb = ops.n_steps, len(indices)
    # the margin covers a normalized state's weight being 1 up to round-off
    bound = ops.eta * np.linalg.norm(ops.m1[0], 2) ** 2 * (1.0 + 1e-9)
    # numpy's uniform of a raw draw is (raw >> 11) 2^-53, so u < bound
    # iff raw <= top, compared before any conversion
    top = np.uint64(2 ** 64 - 1 if bound > _P1_MAX
                    else (int(np.ceil(bound * 2.0 ** 53)) << 11) - 1)
    gens = _streams(indices, seed)
    block = max(1, min(n, _U_FLOATS // max(nb, 1)))
    # a gap's low bits in one gathered product: a0t^g for g < 2^_LOW_BITS
    low = np.eye(len(seg.a1t[0]), dtype=complex)[None]
    for p, _ in seg.powers[:_LOW_BITS]:
        low = np.concatenate([low, low @ p[0]])
    x = seg.initial(nb)
    pos = np.zeros(nb, dtype=np.int64)  # first bin not yet applied
    hits, n_cand = [[] for _ in range(nb)], 0
    for k0 in range(0, n, block):
        # each record's candidate bins in the block and their uniforms
        cols, us = [], []
        for g in gens:
            raw = g.random_raw(min(block, n - k0))
            cols.append(np.flatnonzero(raw <= top))
            us.append((raw[cols[-1]] >> np.uint64(11)) * 2.0 ** -53)
        (cols, counts), u = _padded(cols, 0), _padded(us, 0.0)[0]
        n_cand += int(counts.sum())
        for j in range(cols.shape[1]):
            r = np.flatnonzero(counts > j)
            k = k0 + cols[r, j]
            gaps = k - pos[r]
            y = np.einsum("rd,rde->re", x[0, r], low[gaps & (len(low) - 1)])
            x[0, r] = y / seg.root(seg.weight(y))[:, None]
            seg.no_clicks(x, r, gaps, first=_LOW_BITS)
            cs = _times_rows(x, r, seg.a1t)[0]
            p1 = seg.weight(cs)
            _check_p1(float(p1.max()), int(k[np.argmax(p1)]), ops.dt)
            hit = u[r, j] < p1
            x[0, r[hit]] = cs[hit] / seg.root(p1[hit])[:, None]
            pos[r] = k + hit
            for i, kk in zip(r[hit], k[hit]):
                hits[i].append(kk)
    return [np.array(h, dtype=np.int64) for h in hits], n_cand


def run_segments(ops, indices, seed, click_indices=None):
    """Advance a batch of records click to click under the static branch
    maps of every θ in ``ops`` (a list of StepOps on one grid) at once.

    With ``click_indices`` None, draws the records of trajectory
    ``indices`` by thinning (one θ only); else replays the given records.
    logL always comes from the replay, so a sampled record replays to the
    same bits.  Returns (click-index arrays, logL (Θ, B), candidates).
    """
    seg = _Segments(ops)
    n_cand = 0
    if click_indices is None:
        click_indices, n_cand = _thin(seg, ops[0], indices, seed)
    return click_indices, _replay_segments(seg, click_indices, ops[0].n_steps), n_cand
