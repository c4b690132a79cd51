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
state (-inf for a record of probability zero).  ``step_matrices``
chooses the branch maps once: Kraus pairs on pure states, else
superoperators on vectorized densities, built block by block from the
sensor and decoder stacks.  Fisher information is estimated as the
sample mean of squared scores d logL/dθ over trajectories: the record
likelihood is a product of per-bin maps, so each score is exact from
one replay of the record with its tangent under the maps at θ and their
θ-derivative.  Every trajectory has a fixed-seed counter-based stream,
so the result is independent of chunking.  Records are drawn by
thinning, and every model replays them on the click-to-click segment
core (no-click block products); ``engine="step"`` replays them on the
per-bin step core instead, as a cross-check.
Chunks run one after another in the calling thread.
"""

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from . import _engine
from .errors import CmsenseError, RecordLengthMismatch
from .linalg import dagger
from .models import SensorModel, _sigma, operator_stacks
from .propagate import (STEP_GUARD, TimeGrid, _batched_kron, _bin_times, _joint,
                        _kraus_tables, propagate_linear)

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
    "mismatch_sweep",
    "full_width_half_max",
]

_CHUNK = 256
_CHUNK_BINS = 1 << 24


@dataclass(frozen=True)
class Imperfections:
    """Static hardware imperfections of a two-level cascade.

    gamma: photon loss rate per factor (channel sqrt(gamma)|g><e|), and
        the dephasing rate per factor (channel sqrt(gamma) sigma_z),
    eta: detector efficiency in (0, 1].
    """

    gamma: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise CmsenseError(f"eta must be in (0, 1], got {self.eta}")
        if self.gamma < 0:
            raise CmsenseError("imperfection rates must be nonnegative")

    @property
    def trivial(self):
        return self.gamma == 0.0 and self.eta == 1.0


@dataclass(eq=False)
class CascadeGenerators:
    """Joint counting model of a sensor and an optional decoder.

    The joint (H_c, J_c) stacks are assembled per bin by ``step_matrices``
    from the sensor's operators and the decoder's (H_D, J_D) stacks;
    theta enters through the sensor side only.  ``extra_lindblad`` holds
    constant undetected channels (loss, dephasing).  Exactly one of
    ``initial_state`` (pure) / ``initial_rho`` is set.
    """

    dim: int
    extra_lindblad: List[np.ndarray]
    detector_eta: float
    initial_state: Optional[np.ndarray]
    initial_rho: Optional[np.ndarray]
    time_dependent: bool
    sensor: SensorModel
    decoder: object = None


def _two_level_channels(dim_s, dim_d, imp: Imperfections):
    if dim_s != 2 or (dim_d not in (1, 2)):
        raise CmsenseError(
            "loss/dephasing channels are defined for two-level factors only"
        )
    sge = _sigma(1, 0, 2)
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye_d = np.eye(dim_d, dtype=complex)
    chans = []
    if imp.gamma > 0:  # loss, then dephasing, on each factor
        for op in (sge, sz):
            chans.append(np.sqrt(imp.gamma) * np.kron(op, eye_d))
            if dim_d == 2:
                chans.append(np.sqrt(imp.gamma) * np.kron(np.eye(2), op))
    return chans


def cascade_generators(sensor: SensorModel, dec=None,
                       imperfections: Optional[Imperfections] = None,
                       init="auto") -> CascadeGenerators:
    """Assemble the joint generators for sensor alone or sensor + decoder.

    init: "auto" picks the decoder's purified joint vector when it
    provides one (the vacuum-output initialization), else the product
    of sensor and decoder initial states; "product" forces the product;
    an explicit array is used as given (vector or density).
    """
    if isinstance(init, np.ndarray):
        psi0 = init
    elif init not in ("auto", "product"):
        raise CmsenseError(f"init must be 'auto', 'product' or an array, got {init!r}")
    elif dec is None:
        psi0 = sensor.initial_state
    elif init == "product" or dec.purified_joint is None:
        psi0 = np.kron(sensor.initial_state, dec.initial_state_d)
    else:
        psi0 = dec.purified_joint
    imp = imperfections or Imperfections()
    dd = 1 if dec is None else dec.dim
    extra = _two_level_channels(sensor.dim, dd, imp) if not imp.trivial else []
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim == 1:
        vec, rho = psi0 / np.linalg.norm(psi0), None
    else:
        rho = psi0 / np.trace(psi0).real
        vec = None
    return CascadeGenerators(
        dim=sensor.dim * dd, extra_lindblad=extra,
        detector_eta=imp.eta, initial_state=vec, initial_rho=rho,
        time_dependent=sensor.time_dependent or (dec is not None and dec.time_dependent),
        sensor=sensor, decoder=dec,
    )


def _superops(m0, j, extra, eta, dt):
    """No-click / click superoperators of (n, D, D) operator stacks."""
    jj = _batched_kron(j, j.conj())
    s0 = _batched_kron(m0, m0.conj()) + (1.0 - eta) * dt * jj
    for l in extra:
        s0 = s0 + dt * np.kron(l, l.conj())[None]
    return s0, eta * dt * jj


def _decoder_stacks(dec, grid, n):
    """The decoder's (H_D, J_D) stacks over n bins of ``grid``: its one
    pair broadcast, or its per-bin tables, which hold for their own grid only."""
    if not dec.time_dependent:
        return (np.broadcast_to(dec.hd, (n,) + dec.hd.shape[1:]),
                np.broadcast_to(dec.jd, (n,) + dec.jd.shape[1:]))
    if grid != dec.grid:
        raise CmsenseError("decoder tables do not match the grid")
    return dec.hd, dec.jd


def step_matrices(gen: CascadeGenerators, theta: float, grid: TimeGrid,
                  max_step: float = STEP_GUARD) -> _engine.StepOps:
    """Tabulate the per-bin branch maps of the engines: (bins, D, D) Kraus
    stacks, or superoperator stacks once loss, dephasing, finite efficiency
    or a mixed initial state break purity, with one bin for static
    generators, else one per grid bin."""
    dt, eta = grid.dt, gen.detector_eta
    ts = _bin_times(grid, not gen.time_dependent)
    dec = None if gen.decoder is None else _decoder_stacks(gen.decoder, grid, len(ts))
    m0, m1 = _kraus_tables(*operator_stacks(gen.sensor, theta, ts), dt, max_step, ts,
                           dec, gen.extra_lindblad)
    if not (gen.extra_lindblad or eta < 1.0 or gen.initial_rho is not None):
        return _engine.StepOps(grid.n_steps, dt, m0, m1, gen.initial_state, pure=True)
    if len(ts) * gen.dim ** 4 * 16 > 2e9:
        raise CmsenseError("time-dependent superoperator table too large")
    rho = gen.initial_rho
    if rho is None:
        rho = np.outer(gen.initial_state, gen.initial_state.conj())
    s0, s1 = _superops(m0, m1 / np.sqrt(dt), gen.extra_lindblad, eta, dt)
    return _engine.StepOps(grid.n_steps, dt, s0, s1, rho.ravel(), pure=False)


def _tangent(gen: CascadeGenerators, theta, grid, ops, theta_step, max_step):
    """The theta-derivatives (da0, da1) of the branch maps ``ops`` of
    ``gen`` at theta, da1 None where it is zero.  (dH_S, dJ_S) is the
    central difference of the sensor stacks at theta +/- theta_step (exact
    up to round-off for a sensor affine in theta); the rest is the product
    rule.  A theta-free jump (every built-in sensor) leaves the Kraus
    derivative da0 = -i dt (dH_S x 1), one static matrix when dH_S does not
    change in time, and da1 = 0.  Superoperators do not keep the Kraus
    stacks, so these are built again for their product rule."""
    dt, eta = grid.dt, gen.detector_eta
    ts = _bin_times(grid, not gen.time_dependent)
    (hp, jp), (hm, jm) = (operator_stacks(gen.sensor, theta + e, ts)
                          for e in (theta_step, -theta_step))
    dhs, djs = ((p - m) / (2.0 * theta_step) for p, m in ((hp, hm), (jp, jm)))
    fixed_jump = not djs.any()
    if fixed_jump and (dhs == dhs[:1]).all():
        dhs, djs = dhs[:1], djs[:1]
    n, dec = len(dhs), None if gen.decoder is None else _decoder_stacks(gen.decoder, grid, len(ts))
    dh, djc = dhs, djs
    if dec is not None:
        # dH_c = dH_S x 1 + dR is H_c of (dH_S, dJ_S) with H_D = 0; dJ_c = dJ_S x 1
        eye_d = np.eye(gen.decoder.dim, dtype=complex)[None]
        dh = _joint(dhs, djs, (np.zeros_like(dec[0][:n]), dec[1][:n]),
                    np.empty((n, gen.dim, gen.dim), dtype=complex))[0]
        djc = _batched_kron(djs, eye_d)
    da0, da1 = -1j * dt * dh, None
    if not (fixed_jump and ops.pure):
        m0, m1 = (ops.a0, ops.a1) if ops.pure else _kraus_tables(
            *operator_stacks(gen.sensor, theta, ts), dt, max_step, ts, dec, gen.extra_lindblad)
        jc = m1 / np.sqrt(dt)
    if not fixed_jump:
        x = np.einsum("nji,njk->nik", djc.conj(), jc)  # dJ_c^dag J_c
        da0 -= 0.5 * dt * (x + dagger(x))
        da1 = np.sqrt(dt) * djc
    if ops.pure:
        return da0, da1
    # the product rule on the superoperators of _superops
    da0 = np.broadcast_to(da0, m0.shape)
    ds0 = _batched_kron(da0, m0.conj()) + _batched_kron(m0, da0.conj())
    if da1 is None:
        return ds0, None
    djj = dt * (_batched_kron(djc, jc.conj()) + _batched_kron(jc, djc.conj()))
    return ds0 + (1.0 - eta) * djj, eta * djj


def vacuum_probability(gen: CascadeGenerators, theta: float, grid: TimeGrid,
                       max_step: float = STEP_GUARD):
    """Probability that the detector never clicks over the grid: the
    weight of the initial state after the product of all no-click maps."""
    ops = step_matrices(gen, theta, grid, max_step)
    x = propagate_linear(ops.a0[0] if len(ops.a0) == 1 else ops.a0, ops.x0, ops.n_steps)
    return float(ops.weight(x[None])[0])


def _resolve_engine(engine):
    """The replay core: "auto" is "segment" (click to click) for every
    model; "step" (bin by bin) may be forced as a cross-check."""
    if engine not in ("auto", "segment", "step"):
        raise CmsenseError(f"engine {engine!r} is not available (auto, segment, step)")
    return "segment" if engine == "auto" else engine


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


def _run_records(ops, kind, n_records, seed, given=None, tangent=None, clock=None):
    """Draw (``given`` None) or take the records ``given`` chunk by chunk,
    under the list ``ops`` of per-θ StepOps (one for sampling and for
    scores), and replay them on the ``kind`` core; returns (list of
    click-index arrays, logL (Θ, n_records), thinning candidates).  With
    the ``tangent`` maps (da0, da1) of the one θ, the segment core scores
    the records instead: d logL/dθ (1, n_records).  The segment tables,
    which thinning and both cores run on, are built once for every chunk.
    A ``clock`` dict accumulates the seconds of the table build
    ("table_s"), of thinning ("sample_s") and of replay ("score_s")."""
    t = perf_counter()
    seg = _engine._Segments(ops, tangent)
    t = _lap(clock, "table_s", t)
    replay = {"segment": _engine._replay_segments, "step": _engine.run_steps}[kind]
    hits, logl, cands = [], [np.empty((len(ops), 0))], 0  # no records: (Θ, 0)
    for a, b in _chunks(n_records, ops[0].n_steps):
        if given is None:
            h, c = _engine._thin(seg, ops[0], np.arange(a, b), seed)
            cands += c
            t = _lap(clock, "sample_s", t)
        else:
            h = given[a:b]
        ll = replay(seg, h, ops[0].n_steps)
        t = _lap(clock, "score_s", t)
        hits += h
        logl.append(ll)
    return hits, np.concatenate(logl, axis=1), cands


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
                   engine="auto", max_step=STEP_GUARD):
    """Sample n_traj records by thinning; returns (list of click-index
    arrays, logL, engine kind).  ``engine`` picks the core that replays
    the drawn records to their logL: "auto" and "segment" the segment
    core, "step" the per-bin step core.  ``threads`` is accepted for
    existing callers and has no effect.  Zero records give empty
    results; a negative count raises CmsenseError."""
    if n_traj < 0:
        raise CmsenseError(f"n_traj = {n_traj}: a record count cannot be negative")
    kind = _resolve_engine(engine)
    indices, logl, _ = _run_records([step_matrices(gen, theta, grid, max_step)], kind,
                                    n_traj, seed)
    return indices, logl[0], kind


def replay_records(gen, theta, indices, grid, engine_kind="auto", max_step=STEP_GUARD):
    """Log-likelihoods of stored records (click-index arrays) at the
    parameter value theta, (n_records,), or at each value of a 1-D theta
    array, (n_theta, n_records).

    Either core replays the whole θ set of a static model in one pass,
    its tables stacked; per-bin tables (time-dependent models) replay one
    θ at a time, each table freed before the next is built.
    """
    _check_click_indices(indices, grid.n_steps)
    thetas = [float(t) for t in np.atleast_1d(theta)]
    kind = _resolve_engine(engine_kind)
    sets = [[th] for th in thetas] if gen.time_dependent else [thetas]
    logl = np.concatenate([
        _run_records([step_matrices(gen, th, grid, max_step) for th in ths], kind,
                     len(indices), 0, indices)[1]
        for ths in sets])
    return logl if np.ndim(theta) else logl[0]


@dataclass(eq=False)
class FisherEstimate:
    """Monte Carlo Fisher information of the counting record.

    value = mean of squared scores d logL/dθ; std_error is the standard
    error of that mean.  mean_score should vanish within a few
    mean_score_se (it does up to the O(dt) discretization bias);
    theta_step is the step of the sensor-operator difference;
    null_point is set when every score is exactly zero; n_steps, chunks
    (record chunks), seconds (wall time) and candidates (mean thinning
    candidates per record) the cost, and table_s (branch maps, their
    derivative and the no-click levels), sample_s (thinning) and score_s
    (the tangent replay) the seconds of its stages, which sum to at most
    ``seconds``.
    """

    value: float
    std_error: float
    n_traj: int
    theta_step: float
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
    score_s: float


def fisher_from_trajectories(gen: CascadeGenerators, theta: float, grid: TimeGrid,
                             n_traj: int, theta_step: float = 1e-3,
                             seed: int = 0, max_step: float = STEP_GUARD) -> FisherEstimate:
    """Estimate the Fisher information of the record at theta.

    Draws records at theta by thinning and replays each once on the
    segment core with its tangent under the branch maps at theta and
    their derivative (``_tangent``), which gives the exact score
    d logL/dθ of the record.
    """
    if n_traj < 1:
        raise CmsenseError(f"n_traj = {n_traj}: a Fisher estimate needs at least one record")
    t0 = perf_counter()
    ops = step_matrices(gen, theta, grid, max_step)
    tangent = _tangent(gen, theta, grid, ops, theta_step, max_step)
    clock = {"table_s": perf_counter() - t0, "sample_s": 0.0, "score_s": 0.0}
    indices, scores, cands = _run_records([ops], "segment", n_traj, seed, tangent=tangent,
                                          clock=clock)
    scores = scores[0]
    sq = scores ** 2
    se = lambda v: float(v.std(ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else 0.0
    return FisherEstimate(
        value=float(sq.mean()), std_error=se(sq), n_traj=n_traj, theta_step=theta_step,
        mean_score=float(scores.mean()), mean_score_se=se(scores),
        mean_clicks=float(np.mean([len(h) for h in indices])), seed=seed,
        null_point=not scores.any(), n_steps=grid.n_steps,
        chunks=len(_chunks(n_traj, grid.n_steps)), seconds=perf_counter() - t0,
        candidates=cands / n_traj, **clock,
    )


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
        fishers.append(
            fisher_from_trajectories(
                gen, theta, grid, n_traj, theta_step=theta_step,
                seed=seed + 7919 * i,
            )
        )
    xs = np.asarray(mismatches, dtype=float)
    fwhm = full_width_half_max(xs, np.array([f.value for f in fishers]))
    return MismatchResult(mismatches=xs, fisher=fishers, fwhm=fwhm)
