"""Trajectory engines for photon-counting records.

A record is the array of its click bin indices.  Its likelihood is the
trace of the record-conditioned state, a product of per-bin {no click,
click} maps.  Records are drawn one way, by thinning (``_thin``), and
replayed to their logL by either of two cores.  All of them work on the
maps of ``StepOps``: Kraus pairs on pure states (no extra Lindblad
channels, unit detector efficiency), else superoperators on row-major
vectorized densities (loss, dephasing, finite efficiency).

All of it runs on the tables of one time window of the grid, [lo, hi)
(the whole grid for a static model): its maps, its no-click levels and
its draws.  A record carries its state from one window into the next, so
a per-bin model walks a long grid window by window, holding one
window's tables at a time (``cascade._run_records``).

* segment core (``_Segments``, ``_replay_segments``) for every model: a
  run of no-click bins is a product of rescaled no-click blocks, one
  batched product per block size over the records that take it, so a
  record costs O((clicks + 1) log2 n) products instead of n, with no
  eigendecomposition and no length threshold.  A static model's blocks
  are its binary powers a0^(2^i), taken for the bits of the gap; a
  time-dependent model's are the aligned products of 2^i consecutive
  bins, taken up and then down the levels (Blelloch-style interval
  products).  Replay advances a whole θ set at once, the state
  (Θ, records, D).  Given the θ-derivative of the no-click maps (the
  click map is θ-free), replay also carries each record's tangent dx
  through the block-triangular maps [[A, 0], [dA, A]] (levels and their
  derivatives built alike) and returns the exact score d logL/dθ,
* step core (``run_steps``): the cross-check, a walk over the same tables
  bin by bin through ``_Segments.apply``, the one state update of both
  cores (renormalized by a product with 1/root, which is numpy's complex
  division by the real root to the bit); both cores replay a θ stack.
  It reads only the per-bin maps, so the levels above them are built on
  first use by the segment core or thinning.

Thinning decides every candidate in one loop, each pass a batch of every
live record's next candidates, with the click probability p1 from one of
two sources.  While the records of static tables sit on their shared
start, a pass reads p1 off that start's one no-click trajectory
(``_shared_trajectory``), once per bin, window by window in bounded
memory; a record leaves it at its first click.  Every other pass (every
pass on per-bin tables) is a round: it advances copies of every live
record's latest decided state over the segment core's blocks to a batch
of its candidates at once (``_Segments.advance``): plain block products,
with no renormalization between levels; a row is rescaled by an exact
power of two only when its squared norm would leave a safe range.  p1 is
then one ratio per candidate, weight(y a1) / weight(y).  On a static
model a record that misses every candidate of a round goes on from its
last one, not from its last click, so a round walks only the bits of the
gap since then; per-bin tables go on from the last click (or the
window's start), since a walk from an unaligned bin takes up to twice
the levels of one from an aligned start.

Sampling draws clicks with the raw probability p1 = eta * |M1 psi|^2
per bin; log-likelihoods accumulate raw branch weights, so exp(logL)
is the trace of the record-conditioned unnormalized state, and a
record of probability zero replays to exactly -inf.  Every trajectory
owns a counter-based RNG stream keyed by (seed, index), one raw value
per bin, so results do not depend on how the records are split into
chunks or the grid into windows, nor on whether they are kept from a
draw shared by a sweep's runs (``_kept``).  Everything runs in the
calling thread.
"""

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .errors import ClickProbabilityOverflow
from .linalg import frobenius_sq

_PIECE = 1 << 14  # raw draws per Philox call of thinning
_PAIR_ROWS = 2048  # candidate evaluations per thinning round
_PAIR_ENTRIES = 1 << 14  # per-bin map entries gathered per thinning round
# bytes of the shared trajectory's in-block no-click powers (2^b = 256 of a 4x4
# Kraus map, 16 of a 16x16 superoperator) and of a window's weights (4096
# bins).  Powers counted in bins rather than bytes made the superoperator
# runs slower and larger
_SHARED_BYTES = 64 << 10
_P1_MAX = 0.1
_ABS_CHUNK = 256  # level blocks per np.abs temporary
# thinning's unnormalized states keep their squared norm within 2^(+-_SAFE_EXP):
# a block may then shrink it by up to 2^-958 before it leaves the normal range.
# This holds for the tables of a measurement (no-click and click maps summing
# to a trace-preserving step), where a block's shrink is the no-click
# probability of a span that the drawn record does not click in; for other
# tables it is an assumption (see _Segments.advance)
_SAFE_EXP = 64
_SAFE_LO, _SAFE_HI = 2.0 ** -_SAFE_EXP, 2.0 ** _SAFE_EXP
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


def _stack(shape, spare=None):
    """An uninitialized complex stack of ``shape``: the first entries of
    the stack ``spare`` when it is a writable contiguous stack of at least
    as many of the same matrices, else a new one.  Writing over the memory
    of a stack that is no longer needed saves the page faults of a fresh
    one."""
    if (spare is not None and spare.flags.c_contiguous and spare.flags.writeable
            and spare.dtype == complex and spare.shape[1:] == shape[1:]
            and len(spare) >= shape[0]):
        return spare[:shape[0]]
    return np.empty(shape, dtype=complex)


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


def run_steps(seg, click_indices, n, state):
    """Advance the replay ``state`` (``_Segments.start``) of the rows of
    ``click_indices`` over the ``n`` bins of the tables ``seg``, bin by
    bin: at bin k the rows that click there take the click map, the
    others the no-click map (level 0), each through ``_Segments.apply``."""
    hits = np.zeros((n, len(click_indices)), dtype=bool)  # bin-major: one row per bin
    for r, h in enumerate(click_indices):
        hits[h, r] = True
    x, _, logl = state
    no_click, click = (seg.levels[0][0], None, None), (seg.a1t, None, None)
    for k, h in enumerate(hits):
        seg.apply(x, np.flatnonzero(~h), no_click, k, logl)
        seg.apply(x, np.flatnonzero(h), click, k, logl, True)


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
    The levels above 0 are built on the first walk over blocks
    (``blocks``), so the step core, which reads level 0 only, builds none;
    they are written over the level buffers of ``spare``, the _Segments of
    tables no longer needed, where those fit.

    Given the θ-derivative ``tangent`` = dA0 of the no-click maps of one θ
    (possibly one static matrix; the click map is θ-free), each level
    also carries its derivative, dP = dP_a P_b + P_a dP_b, rescaled with
    its level: a level is (P, log scale, dP or None)."""

    def __init__(self, ops, tangent=None, spare=None):
        o = ops[0]
        self.weight, self.root, self.pure = o.weight, o.root, o.pure
        self.scoring = tangent is not None
        self.initial = lambda nb: np.tile(o.x0, (len(ops), nb, 1)).astype(complex)
        self.static = len(o.a0) == 1
        self.n_steps = o.n_steps

        def tab(stacks):
            a = np.swapaxes(np.stack(stacks) if len(stacks) > 1 else stacks[0][None], -1, -2)
            # a per-bin stack stays a view; a static one is copied, as small
            return np.ascontiguousarray(a) if self.static else a

        self.a1t = tab([q.a1 for q in ops])
        p, dp = tab([q.a0 for q in ops]), None if tangent is None else tab([tangent])
        if dp is not None and len(dp[0]) < len(p[0]):  # one static matrix for every bin
            dp = np.broadcast_to(dp, p.shape)
        self.levels = [(p, np.zeros(p.shape[:2]), dp)]
        self._bufs = (None, None) if spare is None else spare._bufs
        self._grown = False

    def _grow(self):
        """Build the levels above 0, once."""
        if self._grown:
            return
        self._grown = True
        p, s, dp = self.levels[0]
        # weight of c x over weight of x: c^2 for pure states, c for densities
        deg = 2.0 if self.pure else 1.0
        # every level above 0 lives in one buffer (their derivatives in a
        # second): the next θ's or window's tables then reuse one block,
        # where separate levels fragment the heap
        sizes = [1 if self.static else p.shape[1] >> i
                 for i in range(1, self.n_steps.bit_length())]
        shape = (len(p), sum(sizes)) + p.shape[2:]
        flat = (shape[0] * shape[1],) + shape[2:]
        self._bufs = (_stack(flat, self._bufs[0]),
                      None if dp is None else _stack(flat, self._bufs[1]))
        buf, dbuf = (None if b is None else b.reshape(shape) for b in self._bufs)
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

    @property
    def nbytes(self):
        """Bytes of the distinct buffers under its maps, levels and their
        derivatives: a view counts its base once, a broadcast its one
        matrix."""
        owners = {}
        for a in [self.a1t, *self._bufs] + [v for level in self.levels for v in level]:
            while a is not None and a.base is not None:
                a = a.base
            if a is not None:
                owners[id(a)] = a.nbytes
        return sum(owners.values())

    def start(self, nb):
        """The replay state of ``nb`` rows at the first bin: (x, dx, logL),
        the initial state x (Θ, nb, D), with its zero tangent dx when
        scoring and else zero logL (Θ, nb); the other one None."""
        x = self.initial(nb)
        if self.scoring:
            return x, np.zeros_like(x), None
        return x, None, np.zeros(x.shape[:2])

    def result(self, state):
        """What a replay ``state`` gives at the last bin: logL (Θ, B), or
        the scores d logL/dθ (1, B) when scoring."""
        x, dx, logl = state
        return self.scores(x, dx) if self.scoring else logl

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
        renormalized by multiplying their float view by 1/root(weight);
        adds log weight + the entries' scales to ``logl`` when given.  The
        tangent ``dx``, when given, goes through the block-triangular map:
        dx A + x dA, renormalized with x.  Only a
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
        # times 1/root on the float view: numpy's complex division by a
        # real root is this same product, bit for bit, at half the cost
        r = (1.0 / self.root(w))[..., None]
        y.view(np.float64)[...] *= r
        x[:, sel] = y
        if dx is not None:
            dy.view(np.float64)[...] *= r
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
        no-click bins [pos, stop), each block through ``apply``."""
        for sel, i, idx in self.blocks(rows, pos, stop):
            self.apply(x, sel, self.levels[i], idx, logl, dx=dx)

    def advance(self, x, rows, pos, stop):
        """Advance rows ``rows`` of the state (1, B, D) over their no-click
        bins [pos, stop) without renormalizing: each block is a plain
        product, and only a row whose squared norm leaves [2^-_SAFE_EXP,
        2^_SAFE_EXP] is rescaled, by an exact power of two, back to about
        1.  A block (entries below 1) grows a row's norm by at most a
        factor D, its squared norm by D^2, so no product overflows.  The
        range is checked after each block, so a row that a strongly
        decaying mode shrinks is brought back before its weight underflows
        only while one block shrinks its squared norm by at most 2^-958.
        On the tables of a measurement that shrink is the no-click
        probability of the block's bins (on a density, at least its square
        over D), and thinning advances only over bins the drawn record
        does not click in, so it meets a smaller one with about that
        probability; on other tables the bound is assumed."""
        for sel, i, idx in self.blocks(rows, pos, stop):
            y = self.times(x, sel, self.levels[i][0], idx)
            yv = y.view(np.float64)
            n2 = np.einsum("...i,...i->...", yv, yv)  # |y|^2, by one fast reduction
            if n2.min() < _SAFE_LO or n2.max() > _SAFE_HI:
                out = (n2 < _SAFE_LO) | (n2 > _SAFE_HI)
                yv[out] *= np.ldexp(1.0, -(np.frexp(n2[out])[1] // 2))[:, None]
            x[:, sel] = y

    def blocks(self, rows, pos, stop):
        """The no-click blocks that take rows ``rows`` over their bins
        [pos, stop), in time order for each row: (rows, level i, entries).
        Static maps: each row whose gap has bit i set takes power i (entries
        None).  Per-bin maps: aligned blocks, first up the levels (level i
        where bit i of pos is set and the block fits), then down (level i
        where it fits), at most 2 log2 n blocks.  Levels that no row takes
        are skipped."""
        self._grow()
        gaps = stop - pos
        top = int(gaps.max(initial=0)).bit_length()
        if self.static:
            for i in range(top):
                sel = rows[(gaps >> i) & 1 == 1]
                if len(sel):
                    yield sel, i, None
            return
        pos = pos.copy()
        for up, i in [(True, i) for i in range(top)] + [(False, i) for i in reversed(range(top))]:
            fit = pos + (1 << i) <= stop
            if up:
                fit &= (pos >> i) & 1 == 1
            sel = np.flatnonzero(fit)
            if len(sel):
                yield rows[sel], i, pos[sel] >> i
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


def _replay_segments(seg, click_indices, n, state):
    """Advance the replay ``state`` (``_Segments.start``) of the rows of
    ``click_indices`` over the ``n`` bins of the tables ``seg``, with
    their tangents when ``seg`` holds tangent maps: per click ordinal, the
    no-click run up to the click (or to the end), then the click map."""
    ends, counts = _padded(click_indices, n)
    counts += 1  # the run after the last click ends at n
    starts = np.concatenate([np.zeros((len(ends), 1), dtype=ends.dtype), ends[:, :-1] + 1],
                            axis=1)
    x, dx, logl = state
    for j in range(ends.shape[1]):
        rows = np.flatnonzero(counts > j)
        seg.no_clicks(x, rows, starts[rows, j], ends[rows, j], logl, dx=dx)
        clicks = rows[counts[rows] > j + 1]
        seg.apply(x, clicks, (seg.a1t, None, None), ends[clicks, j], logl, True, dx)


def _candidates(top, indices, seed, lo):
    """Each record's candidate bins (raw draw <= ``top``) among the bins
    lo, lo + 1, ... of ``top`` and their raw draws, flat in record order as
    record * n + (bin - lo), with the records' candidate counts.  Record
    ``index`` draws one raw value per bin of the grid from Philox(key=[seed,
    index]) at counter 0, and Philox makes 4 values per counter, so bin lo
    (a multiple of 4) starts counter lo / 4 with an empty buffer.  One
    Philox is re-keyed through its state (cheaper than a new one) and
    draws in record order, in pieces of at most _PIECE values: whole
    records at once when one fits, else one record in pieces."""
    n, nb = len(top), len(indices)
    if n == 0:  # an empty grid draws nothing
        return np.empty(0, np.int64), np.empty(0, np.uint64), np.zeros(nb, np.int64)
    per = max(1, _PIECE // n)  # whole records per piece
    # 4-byte positions where they fit: a chunk holds many candidates
    dtype = np.int32 if nb * n < 2 ** 31 else np.int64
    bitgen = np.random.Philox(0)
    state = bitgen.state  # empty buffer: only the key and counter change
    state["state"]["counter"][0] = lo >> 2

    def stream(i):
        state["state"]["key"] = np.array([seed, i], np.uint64)
        bitgen.state = state
        return bitgen

    def pieces():  # (flat offset, raw draws)
        if per > 1:
            for r in range(0, nb, per):
                yield r * n, np.concatenate([stream(i).random_raw(n)
                                             for i in indices[r:r + per]])
            return
        for r in range(nb):
            stream(indices[r])
            for k0 in range(0, n, _PIECE):
                yield r * n + k0, bitgen.random_raw(min(_PIECE, n - k0))

    flat, raws = [np.empty(0, dtype)], [np.empty(0, np.uint64)]
    for f0, raw in pieces():
        k = f0 % n
        tk = top[k:k + min(len(raw), n)]  # a piece is whole records or part of one
        f = np.flatnonzero(raw.reshape(-1, len(tk)) <= tk)
        flat.append((f + f0).astype(dtype))
        raws.append(raw[f])
    flat = np.concatenate(flat)
    starts = np.searchsorted(flat, (np.arange(nb + 1) * n).astype(dtype))  # same dtype: no copy
    return flat, np.concatenate(raws), np.diff(starts)


def _shared_trajectory(seg, x0, cands):
    """The no-click trajectory x0 a0^k of the static tables ``seg`` from
    the records' shared start ``x0``, window by window: it yields (w0, p1,
    click) per window, the click probability of each of its bins w0, w0 +
    1, ... and ``click(k)``, the normalized click states at its bins w0 +
    k.  The block starts of a window, every 2^b bins, come from its first
    by doubling with the levels a0^(2^i), i >= b: one product per level,
    about log2 of its block count, each row rescaled by a power of two
    (a span's shrink is assumed to stay in the normal range, as in
    _Segments.advance).  A branch weight is linear in the state's density
    (x on densities, x^T conj(x) on pure states), so the no-click and
    click weights of a window's bins are one real gemm of its block
    starts' density coordinates against the weight forms of a0^m and a0^m
    a1, m < 2^b, the powers built by doubling from the levels.  The
    powers, the forms and a window's weights each take at most
    _SHARED_BYTES, and a window holds about _PAIR_ROWS of the grid's
    ``cands`` candidates, as a round does: its memory is bounded by the
    window, not by the grid."""
    n, d = seg.n_steps, seg.a1t.shape[-1]
    b = min(max(_SHARED_BYTES // (16 * d * d), 1).bit_length(), n.bit_length()) - 1
    blk = 1 << b
    seg._grow()
    level = lambda i: seg.levels[i][0][0, 0]
    a1t, s = seg.a1t[0, 0], x0
    # a0t^m (each rescaled); a stack times one matrix is one gemm of its rows
    pw, rows = np.empty((blk, d, d), dtype=complex), lambda a: a.reshape(-1, d)
    pw[0] = np.eye(d)
    for i in range(b):
        h = pw[1 << i:2 << i]
        np.matmul(rows(pw[:1 << i]), level(i), out=rows(h))
        h *= np.ldexp(1.0, -np.frexp(np.abs(h).max(axis=(1, 2)))[1])[:, None, None]
    # a weight is linear in the state's density, Re(z . g) = Re z . Re g - Im z .
    # Im g, so each bin's no-click and click weights are one real gemm of its
    # block start's real coordinates against those of bin m's weight forms
    if seg.pure:  # |x p|^2 = sum_ab x_a conj(x_b) (p p^H)_ab over Hermitian coordinates
        iu = np.triu_indices(d, 1)
        coords = lambda h, re, im: np.concatenate(
            [np.diagonal(h, axis1=1, axis2=2).real, re * h[:, iu[0], iu[1]].real,
             im * h[:, iu[0], iu[1]].imag], axis=1)
        dens = lambda x: coords(x[:, :, None] * x.conj()[:, None, :], 2.0, 2.0)
        forms = lambda m: coords(m @ np.swapaxes(m, 1, 2).conj(), 1.0, -1.0)
    else:  # (x p) . vec(1)
        tv = np.eye(int(round(np.sqrt(d))), dtype=complex).ravel()
        coords = lambda v, im: np.concatenate([v.real, im * v.imag], axis=1)
        dens, forms = lambda x: coords(x, 1.0), lambda m: coords(m @ tv, -1.0)
    tab = np.empty((d * d if seg.pure else 2 * d, blk, 2))
    tab[..., 0] = forms(pw).T
    tab[..., 1] = forms(pw @ a1t).T
    tab = tab.reshape(len(tab), -1)
    # a window: at most 4096 bins (two float weights per bin) and about as
    # many candidate evaluations as a round
    win = max(blk, min(_SHARED_BYTES // 16, _PAIR_ROWS * n // cands) // blk * blk)
    for w0 in range(0, n, win):
        m = min(win, n - w0)
        # the window's block starts, and the next window's first, by doubling:
        # rows [h, 2h) are rows [0, h) times the level a0^(2^b h), each row
        # rescaled by a power of two
        count = -(-m // blk)
        nr = count + (w0 + win < n)
        starts, h = np.empty((nr, d), dtype=complex), 1
        starts[0] = s
        for i in range(b, b + (nr - 1).bit_length()):
            y = np.matmul(starts[:min(h, nr - h)], level(i), out=starts[h:2 * h])
            y *= np.ldexp(1.0, -(np.frexp(np.einsum("hd,hd->h", y, y.conj()).real)[1]
                                 // 2))[:, None]
            h *= 2
        s, starts = starts[-1], starts[:count]
        w = (dens(starts) @ tab).reshape(-1, 2)[:m]

        def click(k, starts=starts):
            cs = np.einsum("hd,hde->he", starts[k // blk], pw[k % blk]) @ a1t
            return cs / seg.root(seg.weight(cs))[:, None]

        yield w0, w[:, 1] / w[:, 0], click


def _top(ops):
    """The per-bin raw-draw limit of thinning's candidates under the tables
    ``ops``.  A record clicks at bin k iff its k-th uniform u_k < p1_k, and
    p1_k <= eta |M1_k|_2^2, so only the bins whose uniform lies below that
    bound are candidates.  The bound is |a1_k|^2 of a Kraus click map, or
    |a1_k| of the superoperator eta dt J (x) conj(J): one static map takes
    the exact spectral norm; a per-bin stack takes the Frobenius norm,
    which bounds it from above at a fraction of the cost.  The margin
    covers a normalized state's weight being 1 up to round-off."""
    deg = 2.0 if ops.pure else 1.0
    if len(ops.a0) == 1:
        bound = np.linalg.norm(ops.a1, 2, axis=(1, 2)) ** deg
    else:
        bound = frobenius_sq(ops.a1) ** (deg / 2.0)
    bound *= 1.0 + 1e-9
    # numpy's uniform of a raw draw is (raw >> 11) 2^-53, so u < bound
    # iff raw <= top, compared before any conversion; a bound of 0 leaves
    # top 0 (only raw 0, u = 0, which never clicks), not a wrap to 2^64 - 1
    lim = np.ceil(np.minimum(bound, _P1_MAX) * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    lim = np.maximum(lim, np.uint64(1)) - np.uint64(1)
    return ops.per_bin(np.where(bound > _P1_MAX, np.uint64(2 ** 64 - 1), lim))


def _kept(drawn, top, nb):
    """``_candidates`` at ``top`` for the ``nb`` records of ``drawn`` =
    (its top, flat positions, raw draws), drawn at a top at least ``top``
    in every bin: the drawn candidates at or below ``top``."""
    n = len(top)
    keep = drawn[2] <= top[drawn[1] % n]
    flat = drawn[1][keep]
    return flat, drawn[2][keep], np.bincount(flat // n, minlength=nb)


def _thin(seg, ops, indices, seed, x=None, lo=0, stats=None, drawn=None):
    """Draw the clicks of trajectory ``indices`` in the bins of the tables
    ``seg`` of the one θ whose StepOps are ``ops``, bins lo, lo + 1, ... of
    the grid, from the records' states ``x`` (1, B, D) at bin lo (None: the
    initial state at lo = 0).  Its candidates (raw draw <= ``_top``) are
    drawn here, or kept (``_kept``) from ``drawn``, a draw of the same
    records, seed and bins whose top is at least this one in every bin;
    any other ``drawn`` is ignored.  A record's state changes only at a click, so one loop
    decides the candidates (module docstring): each pass takes the next
    undecided candidates of every live record, reads their p1 and keeps
    each record's first with u < p1; the evaluations past it are void.
    While the records of static tables share their start (x None), a pass
    takes their candidates in the next window of its trajectory; every
    other pass, a round, takes the next w of every live record (w *
    records <= the pair budget).  The decided state is the normalized
    click state after a hit; after a round without one it is, for a static
    model, the unnormalized state at the round's last candidate.  A bound
    above _P1_MAX makes its bin a candidate for every record, so the
    guard, over valid evaluations, names the first bin in time order where
    some record overflows (windows are thinned in time order, after the
    records' earlier clicks).
    A ``stats`` dict gets the seconds of the candidate draws added to its
    "draw_s" and the raw values drawn here to "draws" (0 for a ``drawn``
    kept), the candidates decided on the shared trajectory to "shared" and
    the rounds to "rounds".
    Returns (list of click-index arrays, relative to lo, number of
    candidates)."""
    n, nb = ops.n_steps, len(indices)
    top = _top(ops)
    t0 = perf_counter()
    if drawn is not None and (top <= drawn[0]).all():
        (flat, raw, counts), draws = _kept(drawn, top, nb), 0
    else:
        (flat, raw, counts), draws = _candidates(top, indices, seed, lo), nb * n
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    t1 = perf_counter()
    # per-bin maps are gathered per pair: bound the gathered entries too
    d2 = seg.a1t.shape[-1] ** 2
    budget = _PAIR_ROWS if seg.static else max(1, min(_PAIR_ROWS, _PAIR_ENTRIES // d2))
    on = np.full(nb, x is None and seg.static)  # the records on the shared start
    x = seg.initial(nb) if x is None else x  # each record's latest decided state
    traj = _shared_trajectory(seg, x[0, 0].copy(), len(flat)) if on.any() else None
    pos = np.zeros(nb, dtype=np.int64)  # the bin it stands at
    ends = np.cumsum(counts)
    nxt = ends - counts  # its next undecided candidate
    hit_rec, hit_bin, over_bin, over_p1 = [], [], [], []
    kb, evals, rounds = n, 0, 0  # kb: the first bin where a valid evaluation overflowed
    while True:
        live = np.flatnonzero(nxt < ends)
        if on[live].any():  # a window of the shared trajectory
            live = live[on[live]]
            w0, p1w, click = next(traj)
            last = (live * n + w0 + len(p1w)).astype(flat.dtype)
            c = np.searchsorted(flat, last) - nxt[live]
            live, c = live[c > 0], c[c > 0]
        else:
            if not len(live):
                break
            traj, rounds = None, rounds + 1
            c = np.minimum(max(1, budget // len(live)), ends[live] - nxt[live])
        first = np.cumsum(c) - c  # each live record's first pair
        rec = np.repeat(live, c)
        ci = nxt[rec] + np.arange(len(rec)) - np.repeat(first, c)
        k = flat[ci] - rec * n
        if traj is None:
            xp, rows = x[:, rec], np.arange(len(rec))
            seg.advance(xp, rows, pos[rec], k)
            cs = seg.times(xp, rows, seg.a1t, k)[0]
            w1 = seg.weight(cs)
            p1 = w1 / seg.weight(xp[0])
        else:
            p1 = p1w[k - w0]
        hit = u[ci] < p1
        # a pair is valid until its record's first hit in the pass
        before = np.cumsum(hit) - hit
        valid = before == np.repeat(before[first], c)
        big = valid & (p1 > _P1_MAX)
        if big.any():
            over_bin.append(k[big])
            over_p1.append(p1[big])
            # later passes look only at candidates up to the first overflow
            kb = min(kb, int(k[big].min()))
            last = (np.arange(nb) * n + kb).astype(flat.dtype)
            ends = np.minimum(ends, np.searchsorted(flat, last, "right"))
        taken = np.add.reduceat(valid, first)
        nxt[live] += taken
        # each live record's last valid pair: its hit, else its last candidate
        j = first + taken - 1
        h = hit[j]
        r, jh = live[h], j[h]
        if traj is None:
            if seg.static:  # per-bin tables go on from the last click (module docstring)
                x[:, live], pos[live] = xp[:, j], k[j]
            x[0, r] = cs[jh] / seg.root(w1[jh])[:, None]
        else:
            evals += int(valid.sum())
            x[0, r], on[r] = click(k[jh] - w0), False
        pos[r] = k[jh] + 1
        hit_rec.append(r)
        hit_bin.append(k[jh])
    if stats is not None:
        stats["draw_s"] += t1 - t0
        stats["draws"] += draws
        stats["shared"] += evals
        stats["rounds"] += rounds
    if over_bin:
        ob, op = np.concatenate(over_bin), np.concatenate(over_p1)
        _check_p1(op[ob == kb].max(), lo + kb, ops.dt)
    rec = np.concatenate([np.empty(0, np.int64)] + hit_rec)
    order = np.argsort(rec, kind="stable")
    bins = np.concatenate([np.empty(0, np.int64)] + hit_bin)[order]
    return np.split(bins, np.cumsum(np.bincount(rec, minlength=nb))[:-1]), len(flat)
