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
  returns the exact score d logL/dθ.  Thinning advances a copy of each
  record's state after its last click over the same blocks to a batch of
  its candidate bins at once,
* step core (``run_steps``): the cross-check, a walk over the same tables
  bin by bin through ``_Segments.apply``, the one state update of both
  cores and of thinning; both cores replay a θ stack.

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
from .linalg import frobenius_sq

_PIECE = 1 << 14  # raw draws per Philox call of thinning
_PAIR_ROWS = 2048  # candidate evaluations per thinning round
_PAIR_ENTRIES = 1 << 14  # per-bin map entries gathered per thinning round
_P1_MAX = 0.1
_ABS_CHUNK = 256  # level blocks per np.abs temporary
# a score below this many eps_mach times its tangent's norm is round-off
_SCORE_ROUNDOFF = 1e3


@dataclass(eq=False)
class StepOps:
    """Per-bin branch maps of a cascaded counting model.

    ``a0``/``a1`` are the (bins, m, m) no-click / click stacks, one bin
    shared by every step for a static model, else n_steps bins (a static
    jump's click stack is a read-only broadcast of one matrix), and
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


def run_steps(seg, click_indices, n):
    """Replay the click-index arrays ``click_indices`` over ``n`` bins bin
    by bin through the per-bin maps of the tables ``seg``: logL (Θ, B).
    At bin k the records that click there take the click map, the others
    the no-click map (level 0), each through ``_Segments.apply``."""
    hits = np.zeros((n, len(click_indices)), dtype=bool)  # bin-major: one row per bin
    for r, h in enumerate(click_indices):
        hits[h, r] = True
    x = seg.initial(len(click_indices))
    logl = np.zeros(x.shape[:2])
    no_click, click = (seg.levels[0][0], None, None), (seg.a1t, None, None)
    for k, h in enumerate(hits):
        seg.apply(x, np.flatnonzero(~h), no_click, k, logl)
        seg.apply(x, np.flatnonzero(h), click, k, logl, True)
    return logl


def _padded(rows, fill):
    """Ragged 1-D arrays as the rows of one array padded with ``fill``
    (at least one ``fill`` per row), and their lengths."""
    counts = np.array([len(a) for a in rows], dtype=np.int64)
    out = np.full((len(rows), counts.max(initial=0) + 1), fill)
    out[np.arange(out.shape[1]) < counts[:, None]] = np.concatenate([np.empty(0, out.dtype),
                                                                     *rows])
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
        per-bin ``table`` for each row r, or entry ``idx`` for every row
        when it is one bin index, by gemm (its one entry when static)."""
        if self.static or np.ndim(idx) == 0:
            return _times_rows(x, sel, table[:, 0 if self.static else idx])
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
        y /= r
        x[:, sel] = y
        if dx is not None:
            dy /= r
            dx[:, sel] = dy
        if logl is not None:
            ll = np.log(w)
            if scales is not None:
                ll += scales[:, :1] if self.static else scales[:, idx]
            if dead is not None:
                ll[dead] = -np.inf
            logl[:, sel] += ll

    def no_clicks(self, x, rows, pos, stop, logl=None, dx=None):
        """Advance rows ``rows`` (and their tangent ``dx``) over their
        no-click bins [pos, stop).  Static maps: each row whose gap has bit
        i set takes power i.  Per-bin maps: aligned blocks,
        first up the levels (level i where bit i of pos is set and the
        block fits), then down (level i where it fits), at most 2 log2 n
        products."""
        gaps = stop - pos
        top = int(gaps.max(initial=0)).bit_length()
        if self.static:
            for i in range(top):
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
    ends, counts = _padded(click_indices, n)
    counts += 1  # the run after the last click ends at n
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


def _candidates(top, indices, seed):
    """Each record's candidate bins (raw draw <= ``top``) and their
    uniforms, flat in record order as record * n + bin, with the records'
    candidate counts.  Record ``index`` draws from Philox(key=[seed,
    index]) at counter 0, one Philox re-keyed through its state (cheaper
    than a new one), in pieces of at most _PIECE values: whole records at
    once when one fits, else one record in pieces."""
    n, nb = len(top), len(indices)
    if n == 0:  # an empty grid draws nothing
        return np.empty(0, np.int64), np.empty(0), np.zeros(nb, np.int64)
    per = max(1, _PIECE // n)  # whole records per piece
    bitgen = np.random.Philox(0)
    state = bitgen.state  # counter 0, empty buffer: only the key changes

    def stream(i):
        state["state"]["key"] = np.array([seed, i], np.uint64)
        bitgen.state = state
        return bitgen

    def pieces():  # (flat offset, raw draws)
        if per > 1:
            for a in range(0, nb, per):
                yield a * n, np.concatenate([stream(i).random_raw(n)
                                             for i in indices[a:a + per]])
            return
        for r, i in enumerate(indices):
            stream(i)
            for k0 in range(0, n, _PIECE):
                yield r * n + k0, bitgen.random_raw(min(_PIECE, n - k0))

    # 4-byte positions where they fit: a chunk holds many candidates
    dtype = np.int32 if nb * n < 2 ** 31 else np.int64
    flat, us = [np.empty(0, dtype)], [np.empty(0)]
    for f0, raw in pieces():
        k = f0 % n
        tk = top[k:k + min(len(raw), n)]  # a piece is whole records or part of one
        f = np.flatnonzero(raw.reshape(-1, len(tk)) <= tk)
        flat.append((f + f0).astype(dtype))
        us.append((raw[f] >> np.uint64(11)) * 2.0 ** -53)
    flat = np.concatenate(flat)
    starts = np.searchsorted(flat, (np.arange(nb + 1) * n).astype(dtype))  # same dtype: no copy
    return flat, np.concatenate(us), np.diff(starts)


def _thin(seg, ops, indices, seed):
    """Draw the records of trajectory ``indices`` under the tables ``seg``
    of the one θ whose StepOps are ``ops``.  A record clicks at bin k iff
    its k-th uniform u_k < p1_k, and p1_k <= eta |M1_k|_2^2, so only the
    bins whose uniform lies below that bound are candidates.  The bound is
    |a1_k|^2 of a Kraus click map, or |a1_k| of the superoperator
    eta dt J (x) conj(J).  A record's state changes only at a click, so
    candidates are decided in rounds: each round takes the next w
    undecided candidates of every live record (w * records <= the pair
    budget), advances a copy of each record's state after its last click
    to all of them at once, and keeps the first with u < p1; the
    evaluations past it are void.  A bound above _P1_MAX makes its bin a
    candidate for every record, so the guard, over valid evaluations,
    names the first bin in time order where some record overflows.
    Returns (list of click-index arrays, number of candidates)."""
    n, nb = ops.n_steps, len(indices)
    # one static map takes the exact spectral norm; a per-bin stack takes
    # the Frobenius norm, which bounds it from above at a fraction of the
    # cost.  The margin covers a normalized state's weight being 1 up to
    # round-off.
    deg = 2.0 if ops.pure else 1.0
    if seg.static:
        bound = np.linalg.norm(ops.a1, 2, axis=(1, 2)) ** deg
    else:
        bound = frobenius_sq(ops.a1) ** (deg / 2.0)
    bound *= 1.0 + 1e-9
    # numpy's uniform of a raw draw is (raw >> 11) 2^-53, so u < bound
    # iff raw <= top, compared before any conversion; a bound of 0 leaves
    # top 0 (only raw 0, u = 0, which never clicks), not a wrap to 2^64 - 1
    lim = np.ceil(np.minimum(bound, _P1_MAX) * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    lim = np.maximum(lim, np.uint64(1)) - np.uint64(1)
    top = ops.per_bin(np.where(bound > _P1_MAX, np.uint64(2 ** 64 - 1), lim))
    flat, u, counts = _candidates(top, indices, seed)
    # per-bin maps are gathered per pair: bound the gathered entries too
    d2 = seg.a1t.shape[-1] ** 2
    budget = _PAIR_ROWS if seg.static else max(1, min(_PAIR_ROWS, _PAIR_ENTRIES // d2))
    x = seg.initial(nb)  # each record's state after its last click
    pos = np.zeros(nb, dtype=np.int64)  # the bin after its last click
    ends = np.cumsum(counts)
    nxt = ends - counts  # its next undecided candidate
    hit_rec, hit_bin, over_bin, over_p1 = [], [], [], []
    kb = n  # the first bin where a valid evaluation overflowed (n: none yet)
    while True:
        live = np.flatnonzero(nxt < ends)
        if not len(live):
            break
        c = np.minimum(max(1, budget // len(live)), ends[live] - nxt[live])
        first = np.cumsum(c) - c  # each live record's first pair
        rec = np.repeat(live, c)
        ci = nxt[rec] + np.arange(len(rec)) - np.repeat(first, c)
        k = flat[ci] - rec * n
        xp, rows = x[:, rec], np.arange(len(rec))
        seg.no_clicks(xp, rows, pos[rec], k)
        cs = seg.times(xp, rows, seg.a1t, k)[0]
        p1 = seg.weight(cs)
        hit = u[ci] < p1
        # a pair is valid until its record's first hit in the round
        before = np.cumsum(hit) - hit
        valid = before == np.repeat(before[first], c)
        big = valid & (p1 > _P1_MAX)
        if big.any():
            over_bin.append(k[big])
            over_p1.append(p1[big])
            # later rounds look only at candidates up to the first overflow
            kb = min(kb, int(k[big].min()))
            last = (np.arange(nb) * n + kb).astype(flat.dtype)
            ends = np.minimum(ends, np.searchsorted(flat, last, "right"))
        nxt[live] += np.add.reduceat(valid, first)
        h = np.flatnonzero(hit & valid)
        r = rec[h]
        x[:, r] = cs[h] / seg.root(p1[h])[:, None]
        pos[r] = k[h] + 1
        hit_rec.append(r)
        hit_bin.append(k[h])
    if over_bin:
        ob, op = np.concatenate(over_bin), np.concatenate(over_p1)
        _check_p1(op[ob == kb].max(), kb, ops.dt)
    rec = np.concatenate([np.empty(0, np.int64)] + hit_rec)
    order = np.argsort(rec, kind="stable")
    bins = np.concatenate([np.empty(0, np.int64)] + hit_bin)[order]
    return np.split(bins, np.cumsum(np.bincount(rec, minlength=nb))[:-1]), len(flat)
