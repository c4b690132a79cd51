"""Trajectory engines for photon-counting records.

A record is the array of its click bin indices.  Its likelihood is the
trace of the record-conditioned state, a product of per-bin {no click,
click} maps.  Records are drawn one way, by thinning (``_thin``), and
replayed to their logL by either of two cores.  All of them work on the
maps of ``StepOps``: Kraus pairs on pure states (no extra Lindblad
channels, unit detector efficiency), else superoperators on row-major
vectorized densities (loss, dephasing, finite efficiency).

* segment core (``_Segments``, ``_replay_segments``) for every model: a
  run of no-click bins is a product of rescaled no-click blocks, one
  batched product per block size over the records that take it, so a
  record costs O((clicks + 1) log2 n) products instead of n, with no
  eigendecomposition and no length threshold.  A static model's blocks
  are its binary powers a0^(2^i), taken for the bits of the gap; a
  time-dependent model's are the aligned products of 2^i consecutive
  bins, taken up and then down the levels (Blelloch-style interval
  products).  Replay advances a whole θ set at once, the state
  (Θ, records, D).  Given the θ-derivatives of the maps, replay also
  carries each record's tangent dx through the block-triangular maps
  [[A, 0], [dA, A]] (levels and their derivatives built alike) and
  returns the exact score d logL/dθ.  Thinning advances the state over
  the same blocks from one candidate bin to the next,
* step core (``run_steps``): a batch of records replayed bin by bin, the
  cross-check of the segment core.

Sampling draws clicks with the raw probability p1 = eta * |M1 psi|^2
per bin; log-likelihoods accumulate raw branch weights, so exp(logL)
is the trace of the record-conditioned unnormalized state, and a
record of probability zero replays to exactly -inf.  Every trajectory
owns a counter-based RNG stream keyed by (seed, index), so results do
not depend on how the records are split into chunks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ClickProbabilityOverflow

_U_FLOATS = 1 << 20  # uniforms drawn ahead per batch of records
_P1_MAX = 0.1
_LOW_BITS = 8  # a sampling gap below 2^_LOW_BITS bins is one table lookup
_ABS_CHUNK = 256  # level blocks per np.abs temporary
# a score below this many eps_mach times its tangent's norm is round-off
_SCORE_ROUNDOFF = 1e3


@dataclass(eq=False)
class StepOps:
    """Per-bin branch maps of a cascaded counting model.

    ``a0``/``a1`` are the (bins, m, m) no-click / click stacks, one bin
    shared by every step for a static model, else n_steps bins, and
    ``x0`` the initial state: Kraus pairs and a state vector when
    ``pure``, else superoperators on row-major vectorized densities (they
    include loss, dephasing and the (1 - eta) feed-through) and vec(rho).
    ``weight`` maps a batch of state rows to their branch weights, |x|^2
    or x . vec(1), and ``root`` a weight to the norm that renormalizes
    its state, sqrt(w) or w itself.
    """

    n_steps: int
    dt: float
    a0: np.ndarray
    a1: np.ndarray
    x0: np.ndarray
    pure: bool

    def __post_init__(self):
        if self.pure:
            self.weight, self.root = lambda x: np.einsum("bi,bi->b", x, x.conj()).real, np.sqrt
        else:
            tv = np.eye(int(round(np.sqrt(len(self.x0)))), dtype=complex).ravel()
            self.weight, self.root = lambda x: (x @ tv).real, lambda w: w

    def per_bin(self, a):
        """The stack ``a`` with one entry per step (static stacks broadcast)."""
        return np.broadcast_to(a, (self.n_steps,) + a.shape[1:])


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


def run_steps(ops, click_indices):
    """Replay the click-index arrays ``click_indices`` bin by bin through
    the branch maps of ``ops``: logL (B,)."""
    n, nb = ops.n_steps, len(click_indices)
    weight, root = ops.weight, ops.root
    a0t, a1t = (np.swapaxes(ops.per_bin(a), -1, -2) for a in (ops.a0, ops.a1))
    hits = np.zeros((n, nb), dtype=bool)  # bin-major: one contiguous row per bin
    for r, h in enumerate(click_indices):
        hits[h, r] = True
    x = np.tile(ops.x0, (nb, 1)).astype(complex)
    logl = np.zeros(nb)
    for k in range(n):
        out = x @ a0t[k]
        sel = np.flatnonzero(hits[k])
        if len(sel):
            out[sel] = _times_rows(x, sel, a1t[k])
        w = weight(out)
        if len(sel) and not w[sel].all():
            # a click of weight zero: the record has probability zero, so
            # logL is -inf and the row keeps its state (0/0 would be NaN)
            dead = sel[w[sel] == 0.0]
            out[dead], w[dead], logl[dead] = x[dead], 1.0, -np.inf
        # in place out / root(w): numpy divides complex by real as a
        # multiply by the reciprocal, so the bits are the same
        out.view(np.float64)[...] *= (1.0 / root(w))[..., None]
        x = out
        logl += np.log(w)
    return logl


def _padded(rows, fill):
    """Ragged 1-D arrays as the rows of one array padded with ``fill``,
    and their lengths."""
    counts = np.array([len(a) for a in rows], dtype=np.int64)
    out = np.full((len(rows), counts.max(initial=0)), fill)
    for r, a in enumerate(rows):
        out[r, :len(a)] = a
    return out, counts


class _Segments:
    """Branch maps of a θ stack as per-bin tables (Θ, entries, ...), with
    one entry for a static model: the transposed click maps ``a1t`` and
    the no-click block ``levels``.  Level 0 holds the per-bin no-click
    maps; entry j of level i + 1 is the product of entries 2j and 2j + 1
    of level i in time order, so it covers bins [j 2^(i+1), (j+1) 2^(i+1));
    a static model's level i is its one power a0^(2^i).  Each block is
    rescaled by an exact power of two and keeps its log weight scale.

    Given the θ-derivatives ``tangent`` = (da0, da1) of the maps of one θ
    (da1 None where zero, da0 possibly one static matrix), each level
    also carries its derivative, dP = dP_a P_b + P_a dP_b, rescaled with
    its level, and ``da1t`` the click map's: a level is (P, log scale, dP
    or None)."""

    def __init__(self, ops, tangent=None):
        o = ops[0]
        self.weight, self.root, self.pure = o.weight, o.root, o.pure
        self.scoring = tangent is not None
        self.initial = lambda nb: np.tile(o.x0, (len(ops), nb, 1)).astype(complex)
        self.static = len(o.a0) == 1

        def tab(stacks):
            a = np.swapaxes(np.stack(stacks) if len(stacks) > 1 else stacks[0][None], -1, -2)
            # a per-bin stack stays a view; a static one is copied, as small
            return np.ascontiguousarray(a) if self.static else a

        da0, da1 = tangent or (None, None)
        self.a1t = tab([q.a1 for q in ops])
        self.da1t = None if da1 is None else tab([da1])
        # weight of c x over weight of x: c^2 for pure states, c for densities
        deg = 2.0 if o.pure else 1.0
        p, dp = tab([q.a0 for q in ops]), None if da0 is None else tab([da0])
        if dp is not None and len(dp[0]) < len(p[0]):  # one static matrix for every bin
            dp = np.broadcast_to(dp, p.shape)
        s = np.zeros(p.shape[:2])
        self.levels = [(p, s, dp)]
        # every level above 0 lives in one buffer (their derivatives in a
        # second): the next θ's tables then reuse one freed block, where
        # separate levels fragment the heap
        sizes = [1 if self.static else p.shape[1] >> i
                 for i in range(1, o.n_steps.bit_length())]
        buf = np.empty((len(ops), sum(sizes)) + p.shape[2:], dtype=complex)
        dbuf = None if dp is None else np.empty_like(buf)
        offs = np.cumsum([0] + sizes)
        for a, b in zip(offs[:-1], offs[1:]):
            even, odd = ((slice(None),) * 2 if self.static else
                         (slice(0, 2 * (b - a), 2), slice(1, 2 * (b - a), 2)))
            pa, pb, sa, sb = p[:, even], p[:, odd], s[:, even], s[:, odd]
            p = np.matmul(pa, pb, out=buf[:, a:b])
            if dp is not None:
                dpb = dp[:, odd]
                dp = np.matmul(dp[:, even], pb, out=dbuf[:, a:b])
                # + P_a dP_b, _ABS_CHUNK blocks at a time: no level-sized temporary
                for c in range(0, b - a, _ABS_CHUNK):
                    c = slice(c, c + _ABS_CHUNK)
                    dp[:, c] += pa[:, c] @ dpb[:, c]
            # exact power-of-two rescaling keeps the blocks finite over any
            # record length and leaves their bits (and symmetries) intact
            # the largest entry modulus of each block, _ABS_CHUNK blocks at a
            # time: np.abs of a whole level would be a temporary half its size
            amax = np.concatenate([np.abs(p[:, i:i + _ABS_CHUNK]).max(axis=(-2, -1))
                                   for i in range(0, p.shape[1], _ABS_CHUNK)], axis=1)
            e = np.frexp(amax)[1]
            scale = np.ldexp(1.0, -e)[..., None, None]
            p *= scale
            if dp is not None:
                dp *= scale
            s = sa + sb + deg * np.log(2.0) * e
            self.levels.append((p, s, dp))

    def times(self, x, sel, table, idx):
        """Rows ``sel`` of the state (Θ, B, D) times entry ``idx[r]`` of a
        per-bin ``table`` for each row r (its one entry when static)."""
        if self.static:
            return _times_rows(x, sel, table[:, 0])
        return np.einsum("tsd,tsde->tse", x[:, sel], table[:, idx])

    def apply(self, x, sel, level, idx, logl=None, click=False, dx=None):
        """Rows ``sel`` of the state through entries ``idx`` of the
        ``level`` (table, log scales or None, derivative or None),
        renormalized; adds log weight + the entries' scales to ``logl``
        when given.  The tangent ``dx``, when given, goes through the
        block-triangular map: dx A + x dA, renormalized with x.  Only a
        ``click`` can have weight zero: the record then has probability
        zero, so logL is -inf and the row keeps its state (0/0 would be
        NaN)."""
        if not len(sel):
            return
        table, scales, dtable = level
        y = self.times(x, sel, table, idx)
        if dx is not None:
            dy = self.times(dx, sel, table, idx)
            if dtable is not None:
                dy += self.times(x, sel, dtable, idx)
        w = self.weight(y.reshape(-1, y.shape[-1])).reshape(y.shape[:-1])
        dead = w == 0.0 if click and not w.all() else None
        if dead is not None:
            y[dead], w[dead] = x[:, sel][dead], 1.0
            if dx is not None:
                dy[dead] = dx[:, sel][dead]
        r = self.root(w)[..., None]
        x[:, sel] = y / r
        if dx is not None:
            dx[:, sel] = dy / r
        if logl is not None:
            ll = np.log(w)
            if scales is not None:
                ll += scales[:, :1] if self.static else scales[:, idx]
            if dead is not None:
                ll[dead] = -np.inf
            logl[:, sel] += ll

    def no_clicks(self, x, rows, pos, stop, logl=None, first=0, dx=None):
        """Advance rows ``rows`` (and their tangent ``dx``) over their
        no-click bins [pos, stop).  Static maps: each row whose gap has bit
        i >= ``first`` set takes power i.  Per-bin maps: aligned blocks,
        first up the levels (level i where bit i of pos is set and the
        block fits), then down (level i where it fits), at most 2 log2 n
        products."""
        gaps = stop - pos
        top = int(gaps.max(initial=0)).bit_length()
        if self.static:
            for i in range(first, top):
                self.apply(x, rows[(gaps >> i) & 1 == 1], self.levels[i], None, logl, dx=dx)
            return
        pos = pos.copy()
        for i in range(top):
            self._block(x, rows, pos, i, ((pos >> i) & 1 == 1) & (pos + (1 << i) <= stop),
                        logl, dx)
        for i in reversed(range(top)):
            self._block(x, rows, pos, i, pos + (1 << i) <= stop, logl, dx)

    def _block(self, x, rows, pos, i, fit, logl, dx):
        """Rows ``rows[fit]`` through their level-i block at ``pos``, which
        then moves past it."""
        sel = np.flatnonzero(fit)
        self.apply(x, rows[sel], self.levels[i], pos[sel] >> i, logl, dx=dx)
        pos[sel] += 1 << i

    def scores(self, x, dx):
        """d log w / dθ of each row's weight w: 2 Re<x|dx> / |x|^2 on pure
        states, (dx . vec 1) / (x . vec 1) on densities.  A score below
        _SCORE_ROUNDOFF eps_mach times its tangent's norm is round-off, a
        null point of exact arithmetic, and is exactly 0."""
        flat = lambda v: v.reshape(-1, v.shape[-1])
        dw = (2.0 * np.einsum("bi,bi->b", flat(dx), flat(x).conj()).real if self.pure
              else self.weight(flat(dx)))
        s = (dw / self.weight(flat(x))).reshape(x.shape[:-1])
        s[np.abs(s) < _SCORE_ROUNDOFF * np.finfo(float).eps * np.linalg.norm(dx, axis=-1)] = 0.0
        return s


def _replay_segments(seg, click_indices, n):
    """logL (Θ, B) of the given records, or their scores d logL/dθ (1, B)
    when ``seg`` holds tangent maps: per click ordinal, the no-click run
    up to the click (or to the end), then the click map."""
    ends, counts = _padded([np.append(h, n) for h in click_indices], n)
    starts = np.concatenate([np.zeros((len(ends), 1), dtype=ends.dtype), ends[:, :-1] + 1],
                            axis=1)
    x = seg.initial(len(ends))
    dx = np.zeros_like(x) if seg.scoring else None
    logl = None if seg.scoring else np.zeros(x.shape[:2])
    for j in range(ends.shape[1]):
        rows = np.flatnonzero(counts > j)
        seg.no_clicks(x, rows, starts[rows, j], ends[rows, j], logl, dx=dx)
        clicks = rows[counts[rows] > j + 1]
        seg.apply(x, clicks, (seg.a1t, None, seg.da1t), ends[clicks, j], logl, True, dx)
    return seg.scores(x, dx) if seg.scoring else logl


def _thin(seg, ops, indices, seed):
    """Draw the records of trajectory ``indices`` under the tables ``seg``
    of the one θ whose StepOps are ``ops``.  A record clicks at bin k iff
    its k-th uniform u_k < p1_k, and p1_k <= eta |M1_k|_2^2, so only the
    bins whose uniform lies below that bound are candidates: the state is
    advanced to each one and p1 evaluated there.  The bound is |a1_k|^2 of
    a Kraus click map, or |a1_k| of the superoperator eta dt J (x) conj(J).
    A bound above _P1_MAX makes its bin a candidate for every record, so
    the guard names the first bin, in time order, where some record
    overflows.  Returns (list of click-index arrays, number of candidates)."""
    n, nb = ops.n_steps, len(indices)
    # one static map takes the exact spectral norm; a per-bin stack takes
    # the Frobenius norm, which bounds it from above at a fraction of the
    # cost (summed over a float view: no temporary the size of the stack).
    # The margin covers a normalized state's weight being 1 up to round-off.
    deg = 2.0 if ops.pure else 1.0
    if seg.static:
        bound = np.linalg.norm(ops.a1, 2, axis=(1, 2)) ** deg
    else:
        v = np.ascontiguousarray(ops.a1).reshape(len(ops.a1), -1).view(np.float64)
        bound = np.einsum("ki,ki->k", v, v) ** (deg / 2.0)
    bound *= 1.0 + 1e-9
    # numpy's uniform of a raw draw is (raw >> 11) 2^-53, so u < bound
    # iff raw <= top, compared before any conversion
    lim = np.ceil(np.minimum(bound, _P1_MAX) * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    top = ops.per_bin(np.where(bound > _P1_MAX, np.uint64(2 ** 64 - 1), lim - np.uint64(1)))
    gens = [np.random.Philox(key=[seed, int(i)]) for i in indices]
    block = max(1, min(n, _U_FLOATS // max(nb, 1)))
    if seg.static:
        # a gap's low bits in one gathered product: a0t^g for g < 2^_LOW_BITS
        low = np.eye(len(seg.a1t[0, 0]), dtype=complex)[None]
        for p, _, _ in seg.levels[:_LOW_BITS]:
            low = np.concatenate([low, low @ p[0, 0]])
    x = seg.initial(nb)
    pos = np.zeros(nb, dtype=np.int64)  # first bin not yet applied
    hits, n_cand = [[] for _ in range(nb)], 0
    for k0 in range(0, n, block):
        # each record's candidate bins in the block and their uniforms
        cols, us = [], []
        tk = top[k0:k0 + block]
        for g in gens:
            raw = g.random_raw(len(tk))
            cols.append(np.flatnonzero(raw <= tk))
            us.append((raw[cols[-1]] >> np.uint64(11)) * 2.0 ** -53)
        (cols, counts), u = _padded(cols, 0), _padded(us, 0.0)[0]
        n_cand += int(counts.sum())
        over = []  # (bin, p1) of each evaluation above the guard
        for j in range(cols.shape[1]):
            r = np.flatnonzero(counts > j)
            k = k0 + cols[r, j]
            if over and k.min() > min(over)[0]:
                break  # every row is past the first overflow bin
            if seg.static:
                gaps = k - pos[r]
                y = np.einsum("rd,rde->re", x[0, r], low[gaps & (len(low) - 1)])
                x[0, r] = y / seg.root(seg.weight(y))[:, None]
                seg.no_clicks(x, r, pos[r], k, first=_LOW_BITS)
            else:
                seg.no_clicks(x, r, pos[r], k)
            cs = seg.times(x, r, seg.a1t, k)[0]
            p1 = seg.weight(cs)
            big = p1 > _P1_MAX
            over += zip(k[big].tolist(), p1[big].tolist())
            hit = u[r, j] < p1
            x[0, r[hit]] = cs[hit] / seg.root(p1[hit])[:, None]
            pos[r] = k + hit
            for i, kk in zip(r[hit], k[hit]):
                hits[i].append(kk)
        if over:
            kb = min(over)[0]
            _check_p1(max(q for kk, q in over if kk == kb), kb, ops.dt)
    return [np.array(h, dtype=np.int64) for h in hits], n_cand
