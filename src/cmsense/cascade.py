"""Cascaded sensor + decoder photon counting.

The decoder output is fed back as the input of nothing: sensor and
decoder emit into a shared unidirectional field, and the cascade
Hamiltonian

    H_c = H_S x 1 + 1 x H_D + (i/2)(J_D J_S^dag - J_S J_D^dag)

with collective jump J_c = J_S x 1 + 1 x J_D (assembled per bin from
the sensor's operators and the decoder's stacks) routes the sensor
emission through the decoder before detection.  A correctly matched
decoder interferes the two contributions destructively, so the
detector stays dark at the decoding point and the counting record
becomes maximally sensitive to the sensor parameter.

A record is the array of its click bin indices, sampled with per-bin
click probability p1 = eta tr(J_c rho J_c^dag) dt / tr(rho); its
log-likelihood is the log-trace of the record-conditioned unnormalized
state (-inf for a record of probability zero).  The joint generators
(``cascade_generators``) and their branch maps (``step_matrices``:
Kraus pairs on pure states, else superoperators on vectorized
densities) come from the one table builder of ``propagate``, which
also gives the maps' θ-derivative.  Fisher information is estimated as the
sample mean of squared scores d logL/dθ over trajectories: the record
likelihood is a product of per-bin maps, so each score is exact from
one replay of the record with its tangent under the maps at θ and their
θ-derivative, itself exact: θ enters only through the sensor's
generator, H_S = H0 + θG, so dH_c = G x 1 and the click map is θ-free.
Every trajectory has a fixed-seed counter-based stream, so the result
is independent of chunking.  Records are drawn by
thinning, and every model replays them on the click-to-click segment
core (no-click block products); ``engine="step"`` replays them on the
per-bin step core instead, as a cross-check.  A per-bin model whose
tables exceed _TABLE_BYTES runs window by window in time order, its
records carrying their state from one window into the next, so a long
grid holds one window's tables at a time.
Chunks run one after another in the calling thread, which also draws
their candidates; the ``threads`` argument changes nothing.
``fisher_sweep`` runs several cascades on one seed, so they draw the
same stream for every record: each chunk is drawn once, at the largest
click bound of the static runs, and every run keeps its own candidates
of it, the same records as a run of its own; ``fisher_from_trajectories``
is its one-cascade case.
"""

from dataclasses import dataclass
from time import perf_counter
from typing import List, Sequence

import numpy as np

from . import _engine
from .errors import CmsenseError, RecordLengthMismatch
from .models import SensorModel
from .propagate import (STEP_GUARD, CascadeGenerators, Imperfections, TimeGrid, _pure,
                        _theta_tables, cascade_generators, propagate_linear, step_matrices)

__all__ = [
    "Imperfections",
    "CascadeGenerators",
    "FisherEstimate",
    "MismatchResult",
    "cascade_generators",
    "step_matrices",
    "vacuum_probability",
    "sample_records",
    "replay_records",
    "fisher_from_trajectories",
    "fisher_sweep",
    "mismatch_sweep",
    "full_width_half_max",
]

_CHUNK = 256
_CHUNK_BINS = 1 << 24
# bytes of per-bin maps, levels and derivatives that a record run holds at
# once: a longer grid of per-bin tables is walked in windows (_windows)
_TABLE_BYTES = 8 << 20


def vacuum_probability(gen: CascadeGenerators, theta: float, grid: TimeGrid,
                       max_step: float = STEP_GUARD):
    """Probability that the detector never clicks over the grid: the
    weight of the initial state after the product of all no-click maps."""
    ops = step_matrices(gen, theta, grid, max_step)
    x = propagate_linear(ops.a0[0] if len(ops.a0) == 1 else ops.a0, ops.x0, ops.n_steps)
    return float(ops.weight(x[None])[0])


def _resolve_engine(engine):
    """The replay core: "segment" (click to click), or "step" (bin by bin)
    as a cross-check."""
    if engine not in ("segment", "step"):
        raise CmsenseError(f"engine {engine!r} is not available (segment, step)")
    return engine


def _chunks(n, n_steps):
    """Spans of trajectory indices: all n records, split so that a chunk
    holds at most _CHUNK_BINS record-bins (the step core's replay holds a
    bool per record-bin) but at least _CHUNK records."""
    size = max(_CHUNK, _CHUNK_BINS // max(n_steps, 1))
    return [(i, min(i + size, n)) for i in range(0, n, size)]


def _lap(clock, key, t0):
    """Add the seconds since ``t0`` to ``clock[key]`` when a clock is
    given; returns the time now."""
    t = perf_counter()
    if clock is not None:
        clock[key] = clock.get(key, 0.0) + t - t0
    return t


def _bin_bytes(gen, n_theta, scoring):
    """An upper bound on the bytes per bin of a window's tables: for each θ
    the no-click and click maps and the no-click levels, and when
    ``scoring`` the no-click derivative and its levels (a part that does
    not change in time is one matrix, which the bound counts per bin)."""
    m = gen.dim if _pure(gen) else gen.dim ** 2
    return n_theta * (5 if scoring else 3) * m * m * 16


def _windows(gen, n_theta, scoring, n_steps):
    """The bin windows [lo, hi) that a record run walks in time order: the
    whole grid for a static model, or for per-bin tables (``_bin_bytes``)
    within _TABLE_BYTES, else windows of the largest power of two of bins,
    at least 4, whose tables fit it.  A window of 2^m bins from a multiple
    of 2^m keeps the segment core's blocks aligned on the grid, and its
    draws start on a fresh Philox counter (``_engine._candidates``)."""
    w, per_bin = n_steps, _bin_bytes(gen, n_theta, scoring)
    if gen.time_dependent and n_steps * per_bin > _TABLE_BYTES:
        w = 1 << max(2, (_TABLE_BYTES // per_bin).bit_length() - 1)
    return [(lo, min(lo + w, n_steps)) for lo in range(0, n_steps, max(w, 1))] or [(0, 0)]


def _tables(gen, thetas, grid, max_step, scoring=False):
    """The (tables, windows) arguments of ``_run_records`` for the θ set
    ``thetas`` of ``gen``: the tables of a window are its bins of each
    θ's ``step_matrices``, with their θ-derivative at the one θ when
    ``scoring``, from one ``_theta_tables`` pass."""
    def tables(lo, hi, spare):
        return _theta_tables(gen, thetas, grid, max_step, lo, hi, spare and spare[0], scoring)
    return tables, _windows(gen, len(thetas), scoring, grid.n_steps)


def _window_part(hits, lo, hi):
    """The click indices of ``hits`` in bins [lo, hi), relative to lo."""
    h = np.asarray(hits, dtype=np.int64)
    a, b = np.searchsorted(h, (lo, hi))
    return h[a:b] - lo if lo else h[a:b]


def _histories(rows, parts):
    """The distinct click histories after one more window, in first-seen
    order: each record's history so far is its row of ``rows`` and its
    clicks in the window ``parts``.  Returns each new row's row before
    the window, each record's new row, and each new row's window part."""
    first = {}
    new = np.array([first.setdefault((r, p.tobytes()), len(first))
                    for r, p in zip(rows.tolist(), parts)], dtype=np.intp)
    rep = np.unique(new, return_index=True)[1]
    return rows[rep], new, [parts[i] for i in rep]


def _shared_draws(top, seed):
    """The candidate draws that the runs of a sweep at ``seed`` share:
    ``draw(a, b, lo, hi, stats)`` gives the (top, flat positions, raw
    draws) of record chunk [a, b) over the whole grid, drawn on its first
    request at the per-bin ``top`` (the largest of the sweep's static
    runs) and kept for the others, or None for any other window [lo, hi).
    The request that draws adds its seconds and raw values to its
    ``stats`` ("draw_s", "draws").  Each run keeps its own candidates of a
    chunk (``_engine._thin``), so the store holds at most the candidates
    of one record set at the largest bound."""
    store, n = {}, len(top)

    def draw(a, b, lo, hi, stats):
        if (lo, hi) != (0, n):
            return None
        if (a, b) not in store:
            t0 = perf_counter()
            store[a, b] = (top, *_engine._candidates(top, np.arange(a, b), seed, 0)[:2])
            stats["draw_s"] += perf_counter() - t0
            stats["draws"] += (b - a) * n
        return store[a, b]
    return draw


def _run_records(tables, windows, kind, n_records, seed, given=None, stats=None, shared=None):
    """Draw (``given`` None) or take the records ``given`` chunk by chunk
    and replay them on the ``kind`` core, window by window in time order:
    ``tables(lo, hi, spare)`` gives the list of per-θ StepOps (one for
    sampling and for scores) of bins [lo, hi) of the grid and their
    no-click derivative dA0 at the one θ, or None (``_theta_tables``),
    and ``windows`` lists the (lo, hi) (``_windows``).  A window's tables and levels are built
    once and serve every chunk, thinning and replay alike.  The next
    window's are written over them (``spare``: the last window's StepOps;
    ``_Segments`` takes the last one's level buffers), so a run holds one
    window's tables at a time and does not fault in fresh pages for each.
    In each window thinning draws a chunk's clicks from its records'
    replayed states at the window's start, then the window's part of
    every record is replayed from there, one row per distinct click
    history so far (``_histories``).  A row does not depend on the other
    rows of its batch, so this is bit for bit the replay of every record;
    over one window (a static model, or a short grid) it is each distinct
    record replayed once.  Returns (list of click-index
    arrays, logL (Θ, n_records), thinning candidates), or with tangent
    maps the scores d logL/dθ (1, n_records) in place of logL.  A
    ``shared`` store (``_shared_draws``) hands thinning each chunk's draws
    of a sweep, drawn once for its runs.  A
    ``stats`` dict accumulates the seconds of the table builds
    ("table_s"), of thinning ("sample_s"), of its candidate draws within
    it ("draw_s", with the raw values drawn, "draws", the candidates
    decided on a shared start's trajectory, "shared", and the rounds
    after it, "rounds": ``_engine._thin``) and of replay ("score_s"), the no-click levels
    counted in the stage that first walks them, and gets
    the number of windows ("windows") and the most MB (2^20 bytes) of
    maps, levels and derivatives held at once ("table_mb")."""
    replay = {"segment": _engine._replay_segments, "step": _engine.run_steps}[kind]
    chunks = _chunks(n_records, windows[-1][1])
    drawn = [[] for _ in windows]  # per window: each drawn record's clicks in it
    states = [None] * len(chunks)  # per chunk: each record's row, the rows' replay state
    cands, held = 0, 0
    ops = seg = None  # the last window's tables, which the next one's are written over
    t = perf_counter()
    for w, (lo, hi) in enumerate(windows):
        ops, tangent = tables(lo, hi, ops)
        seg = _engine._Segments(ops, tangent, seg)
        t = _lap(stats, "table_s", t)
        for c, (a, b) in enumerate(chunks):
            rows, state = states[c] or (np.zeros(b - a, dtype=np.intp), seg.start(1))
            if given is None:
                start = None if states[c] is None else state[0][:, rows]
                superset = shared and shared(a, b, lo, hi, stats)
                h, n_cands = _engine._thin(seg, ops[0], np.arange(a, b), seed, start, lo,
                                           stats, superset)
                cands += n_cands
                drawn[w] += h
                t = _lap(stats, "sample_s", t)
            else:
                h = [_window_part(given[r], lo, hi) for r in range(a, b)]
            parent, rows, parts = _histories(rows, h)
            state = tuple(None if v is None else v[:, parent] for v in state)
            replay(seg, parts, hi - lo, state)
            states[c] = rows, state
            t = _lap(stats, "score_s", t)
        held = max(held, seg.nbytes)
    out = [np.empty((len(ops), 0))]  # no records: (Θ, 0)
    out += [seg.result(state)[:, rows] for rows, state in states]
    if stats is not None:
        stats.update(windows=len(windows), table_mb=held / 2 ** 20)
    if given is not None:
        hits = given
    elif len(windows) == 1:  # one window from bin 0: its clicks are the records
        hits = drawn[0]
    else:
        hits = [np.concatenate([p + lo for p, (lo, _) in zip(ps, windows)])
                for ps in zip(*drawn)]
    return hits, np.concatenate(out, axis=1), cands


def _check_click_indices(indices, n_steps):
    for r, hits in enumerate(indices):
        h = np.asarray(hits)
        if h.ndim != 1 or (h.size and (h.dtype.kind not in "iu" or h[0] < 0
                                       or h[-1] >= n_steps or np.any(h[1:] <= h[:-1]))):
            raise RecordLengthMismatch(
                f"record {r}: click indices must be strictly increasing integers "
                f"in [0, {n_steps})"
            )


def sample_records(gen, theta, grid, n_traj, seed=0, threads=1,
                   engine="segment", max_step=STEP_GUARD):
    """Sample n_traj records by thinning; returns (list of click-index
    arrays, logL, engine kind).  ``engine`` picks the core that replays
    the drawn records to their logL: "segment" the segment core, "step"
    the per-bin step core.  ``threads`` is accepted for existing callers
    and has no effect.  Zero records give empty results; a negative
    count raises CmsenseError."""
    if n_traj < 0:
        raise CmsenseError(f"n_traj = {n_traj}: a record count cannot be negative")
    kind = _resolve_engine(engine)
    indices, logl, _ = _run_records(*_tables(gen, [theta], grid, max_step), kind, n_traj, seed)
    return indices, logl[0], kind


def replay_records(gen, theta, indices, grid, engine_kind="segment", max_step=STEP_GUARD):
    """Log-likelihoods of stored records (click-index arrays) at the
    parameter value theta, (n_records,), or at each value of a 1-D theta
    array, (n_theta, n_records).

    A static model replays the whole θ set in one pass on either core,
    its tables built in one stacked pass (``_theta_tables``); per-bin
    tables (time-dependent models) replay one θ at a time, window by
    window, holding one window's tables at a time.  Each distinct record
    is replayed once (``_run_records``).
    """
    _check_click_indices(indices, grid.n_steps)
    thetas = [float(t) for t in np.atleast_1d(theta)]
    kind = _resolve_engine(engine_kind)
    if not thetas:  # no θ: no tables to build
        return np.empty((0, len(indices)))
    sets = [[th] for th in thetas] if gen.time_dependent else [thetas]
    logl = np.concatenate([_run_records(*_tables(gen, ths, grid, max_step), kind,
                                        len(indices), 0, indices)[1]
                           for ths in sets])
    return logl if np.ndim(theta) else logl[0]


@dataclass(eq=False)
class FisherEstimate:
    """Monte Carlo Fisher information of the counting record.

    value = mean of squared scores d logL/dθ; std_error is the standard
    error of that mean.  mean_score should vanish within a few
    mean_score_se (it does up to the O(dt) discretization bias).  Both
    errors are NaN for one record, which has no spread to measure;
    null_point is set when every score is exactly zero; n_steps, chunks
    (record chunks), seconds (wall time) and candidates (mean thinning
    candidates per record) the cost, and table_s (branch maps and their
    derivative), sample_s (thinning) and score_s (the tangent replay) the
    seconds of its stages, which sum to at most ``seconds``; the no-click
    levels count in the stage that first walks them.  draw_s is the part
    of sample_s spent in the candidate draws, draws the raw values drawn
    for this estimate (0 when it kept its candidates from the draw of a
    sweep's earlier run, which explains a near-zero draw_s).  shared is
    the mean candidates per record decided on the no-click trajectory of
    the records' shared start (up to each record's first click; 0 on
    per-bin tables), and rounds the thinning rounds run after it over all
    chunks.
    windows is the number of time windows the grid was walked in, and
    table_mb the most MB (2^20 bytes) of maps, levels and derivatives held
    at once.
    """

    value: float
    std_error: float
    n_traj: int
    mean_score: float
    mean_score_se: float
    mean_clicks: float
    seed: int
    null_point: bool
    n_steps: int
    chunks: int
    seconds: float
    candidates: float
    table_s: float
    sample_s: float
    draw_s: float
    draws: int
    shared: float
    rounds: int
    score_s: float
    windows: int
    table_mb: float


def fisher_sweep(gens: Sequence[CascadeGenerators], theta: float, grid: TimeGrid,
                 n_traj: int, seed: int = 0,
                 max_step: float = STEP_GUARD) -> List[FisherEstimate]:
    """Estimate the Fisher information of the record at theta for each
    generator set of ``gens``, one run each, every run on ``seed``.

    A run draws records at theta by thinning and replays each once on the
    segment core with its tangent under the branch maps at theta and
    their exact derivative (from the same ``_theta_tables`` pass: θ enters
    through the sensor's generator G), which gives the exact score
    d logL/dθ of the record.  A per-bin model longer than a few MB of
    tables runs window by window (``_run_records``): each window's maps,
    derivative and levels serve the draws and the scores of its bins.

    The runs share a seed, so they draw the same Philox stream for every
    record.  The tables of each static model (one window of one bin) are
    built first, and when two or more runs are static each record chunk
    is drawn once, at the largest of their click bounds
    (``_shared_draws``); every run keeps exactly its own candidates, the
    raw draws at or below its own bound, so its records, scores and
    estimate are those of a run of its own.  A run whose bound exceeds the
    shared draw's in some bin, or that walks the grid in several windows,
    draws its own.
    """
    if n_traj < 1:
        raise CmsenseError(f"n_traj = {n_traj}: a Fisher estimate needs at least one record")
    runs, tops = [], []
    for gen in gens:
        t0 = perf_counter()
        stats = {"table_s": 0.0, "sample_s": 0.0, "draw_s": 0.0, "draws": 0, "shared": 0,
                 "rounds": 0, "score_s": 0.0}
        tables, windows = _tables(gen, [theta], grid, max_step, True)
        if not gen.time_dependent:  # built now for its click bound, and handed to its run
            built = tables(*windows[0], None)
            tables = lambda lo, hi, spare, built=built: built
            tops.append(_engine._top(built[0][0]))
        stats["table_s"] = perf_counter() - t0
        runs.append((tables, windows, stats))
    shared = _shared_draws(np.maximum.reduce(tops), seed) if len(tops) > 1 else None
    out = []
    for tables, windows, stats in runs:
        t0 = perf_counter() - stats["table_s"]  # its seconds count its tables built above
        indices, scores, cands = _run_records(tables, windows, "segment", n_traj, seed,
                                              stats=stats, shared=shared)
        scores = scores[0]
        sq = scores ** 2
        # one record has no spread to measure: its errors are NaN, not 0
        se = lambda v: float(v.std(ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else float("nan")
        out.append(FisherEstimate(
            value=float(sq.mean()), std_error=se(sq), n_traj=n_traj,
            mean_score=float(scores.mean()), mean_score_se=se(scores),
            mean_clicks=float(np.mean([len(h) for h in indices])), seed=seed,
            null_point=not scores.any(), n_steps=grid.n_steps,
            chunks=len(_chunks(n_traj, grid.n_steps)), seconds=perf_counter() - t0,
            candidates=cands / n_traj, shared=stats.pop("shared") / n_traj, **stats,
        ))
    return out


def fisher_from_trajectories(gen: CascadeGenerators, theta: float, grid: TimeGrid,
                             n_traj: int, theta_step: float = 1e-3,
                             seed: int = 0, max_step: float = STEP_GUARD) -> FisherEstimate:
    """Estimate the Fisher information of the record at theta: the
    one-run ``fisher_sweep``.  ``theta_step`` is accepted for existing
    callers and has no effect.
    """
    return fisher_sweep([gen], theta, grid, n_traj, seed, max_step)[0]


def full_width_half_max(x, y):
    """FWHM of a sampled peak by linear interpolation at the outermost
    half-maximum crossings; NaN when a side never falls below half or
    the crossings face the wrong way (a dip)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    half = 0.5 * y.max()
    lo = hi = None
    for i in range(len(x) - 1):
        if y[i] < half <= y[i + 1]:
            lo = x[i] + (half - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i])
            break
    for i in range(len(x) - 1, 0, -1):
        if y[i] < half <= y[i - 1]:
            hi = x[i - 1] + (half - y[i - 1]) * (x[i] - x[i - 1]) / (y[i] - y[i - 1])
            break
    if lo is None or hi is None or hi < lo:  # hi < lo: a dip, not a peak
        return float("nan")
    return float(hi - lo)


@dataclass(eq=False)
class MismatchResult:
    mismatches: np.ndarray
    fisher: List[FisherEstimate]
    fwhm: float

    @property
    def values(self):
        return np.array([f.value for f in self.fisher])


def mismatch_sweep(sensor: SensorModel, theta: float, mismatches: Sequence[float],
                   grid: TimeGrid, n_traj: int, theta_step: float = 1e-3,
                   seed: int = 0) -> MismatchResult:
    """Fisher information versus decoder detuning mismatch.

    For each mismatch dm the decoder is the two-level pair with detuning
    offset dm from the matched value; dm = 0 reproduces the matched
    decoder.  Requires a two-level sensor with a static Rabi drive.
    ``theta_step`` is accepted for existing callers and has no effect.
    """
    from .decoder import two_level_decoder

    if sensor.dim != 2:
        raise CmsenseError("mismatch sweep is defined for the two-level sensor")
    h0 = sensor.hamiltonian(grid.t_start, theta)
    j0 = sensor.jump(grid.t_start, theta)
    omega = 2.0 * float(h0[0, 1].real)
    gamma = float(np.abs(j0[1, 0]) ** 2)
    delta = -float(h0[0, 0].real)

    fishers = []
    for i, dm in enumerate(mismatches):
        dec = two_level_decoder(omega, dm - delta, gamma)
        gen = cascade_generators(sensor, dec)
        fishers.append(fisher_from_trajectories(gen, theta, grid, n_traj, seed=seed + 7919 * i))
    xs = np.asarray(mismatches, dtype=float)
    fwhm = full_width_half_max(xs, np.array([f.value for f in fishers]))
    return MismatchResult(mismatches=xs, fisher=fishers, fwhm=fwhm)
