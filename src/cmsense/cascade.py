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
superoperators on vectorized densities.  Only H_S carries theta (unless
the sensor's jump does), so the theta-free parts of the tables (R,
J_c^dag J_c and sqrt(dt) J_c) are built once per generator and grid and
kept on the generator; each theta then adds H_S x 1 and assembles its
no-click map in place.  Fisher information is
estimated as the sample mean of squared central finite-difference
scores over trajectories, with a fixed-seed counter-based stream per
trajectory so the result is independent of chunking.  Every model
takes the click-to-click segment core (no-click block products, sampling
by thinning); ``engine="step"`` forces the per-bin step core as a
cross-check.
Chunks run one after another in the calling thread.
"""

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from . import _engine
from .errors import CmsenseError, RecordLengthMismatch
from .linalg import dagger
from .models import SensorModel, _sigma, operator_stacks
from .propagate import (_BLOCK, TimeGrid, _batched_kron, _bin_times, _decay, _frobenius,
                        _guard, _kraus_a0, propagate_linear)

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
# a score below this many eps_mach * max(1, |logL+-|) / eps is round-off
_SCORE_ROUNDOFF = 1e3
# share of the records replayed again at half the finite-difference step
_HALVING_FRACTION = 0.1


@dataclass(frozen=True)
class Imperfections:
    """Static hardware imperfections of a two-level cascade.

    gamma: photon loss rate per factor (channel sqrt(gamma)|g><e|),
    gamma_dep: dephasing rate per factor (channel sqrt(gamma_dep) sigma_z);
        defaults to gamma when None,
    eta: detector efficiency in (0, 1].
    """

    gamma: float = 0.0
    gamma_dep: Optional[float] = None
    eta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise CmsenseError(f"eta must be in (0, 1], got {self.eta}")
        if self.gamma < 0 or (self.gamma_dep is not None and self.gamma_dep < 0):
            raise CmsenseError("imperfection rates must be nonnegative")

    @property
    def dephasing(self):
        return self.gamma if self.gamma_dep is None else self.gamma_dep

    @property
    def trivial(self):
        return self.gamma == 0.0 and self.dephasing == 0.0 and self.eta == 1.0


@dataclass(eq=False)
class CascadeGenerators:
    """Joint counting model of a sensor and an optional decoder.

    The joint (H_c, J_c) stacks are assembled per bin by ``step_matrices``
    from the sensor's operators and the decoder's (H_D, J_D) stacks;
    theta enters through the sensor side only.  ``extra_lindblad`` holds
    constant undetected channels (loss, dephasing).  Exactly one of
    ``initial_state`` (pure) / ``initial_rho`` is set.  ``_fixed`` keeps
    the theta-free parts of the tables of the last grid tabulated.
    """

    dim: int
    extra_lindblad: List[np.ndarray]
    detector_eta: float
    initial_state: Optional[np.ndarray]
    initial_rho: Optional[np.ndarray]
    time_dependent: bool
    sensor: SensorModel
    decoder: object = None
    _fixed: object = field(default=None, init=False, repr=False)


def _two_level_channels(dim_s, dim_d, imp: Imperfections):
    if dim_s != 2 or (dim_d not in (1, 2)):
        raise CmsenseError(
            "loss/dephasing channels are defined for two-level factors only"
        )
    sge = _sigma(1, 0, 2)
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye_d = np.eye(dim_d, dtype=complex)
    chans = []
    if imp.gamma > 0:
        chans.append(np.sqrt(imp.gamma) * np.kron(sge, eye_d))
        if dim_d == 2:
            chans.append(np.sqrt(imp.gamma) * np.kron(np.eye(2), sge))
    gd = imp.dephasing
    if gd > 0:
        chans.append(np.sqrt(gd) * np.kron(sz, eye_d))
        if dim_d == 2:
            chans.append(np.sqrt(gd) * np.kron(np.eye(2), sz))
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


def _coupling(js, hd, jd):
    """The theta-free parts of the joint generators of (blocks of) the
    sensor jump and decoder stacks: R = 1 x H_D + (i/2)(J_S^dag x J_D -
    J_S x J_D^dag) and J_c = J_S x 1 + 1 x J_D."""
    eye_s = np.broadcast_to(np.eye(js.shape[-1], dtype=complex), js.shape)
    eye_d = np.broadcast_to(np.eye(hd.shape[-1], dtype=complex), hd.shape)
    cross = _batched_kron(dagger(js), jd)
    cross -= _batched_kron(js, dagger(jd))
    np.multiply(0.5j, cross, out=cross)
    r = _batched_kron(eye_s, hd)
    r += cross
    jc = _batched_kron(js, eye_d)
    jc += _batched_kron(eye_s, jd)
    return r, jc


def _joint_h(hs, r, out=None):
    """H_c = H_S x 1 + R, into ``out`` when given; without a decoder
    (``r`` None) H_S itself, copied into ``out``."""
    if r is None:
        out[...] = hs
        return out
    dd = r.shape[-1] // hs.shape[-1]
    h = _batched_kron(hs, np.broadcast_to(np.eye(dd, dtype=complex), (len(hs), dd, dd)), out)
    h += r
    return h


def _joint_stacks(gen: CascadeGenerators, theta, grid, ts):
    """Per-bin joint (H_c, J_c) stacks at the times ``ts`` of ``grid``,
    assembled from the sensor and decoder stacks."""
    hs, js = operator_stacks(gen.sensor, theta, ts)
    if gen.decoder is None:
        return hs, js
    r, jc = _coupling(js, *_decoder_stacks(gen.decoder, grid, len(ts)))
    return _joint_h(hs, r), jc


@dataclass(eq=False)
class _FixedParts:
    """The theta-free parts of a cascade's tables on ``grid`` for the
    sensor jump stack ``js``: R (None without a decoder), the decay
    J_c^dag J_c + sum_l L_l^dag L_l with its per-bin Frobenius norms, and
    the click map m1 = sqrt(dt) J_c (read-only: every table shares it)."""

    grid: TimeGrid
    js: np.ndarray
    r: Optional[np.ndarray]
    decay: np.ndarray
    decay_norm: np.ndarray
    m1: np.ndarray


def _build_fixed(gen: CascadeGenerators, grid, js):
    """The theta-free parts of ``gen`` on ``grid`` for the sensor jump
    stack ``js``, built _BLOCK bins at a time."""
    n, dec = len(js), gen.decoder
    decay = np.empty((n, gen.dim, gen.dim), dtype=complex)
    m1 = np.empty_like(decay)
    r = None if dec is None else np.empty_like(decay)
    if dec is not None:
        hd, jd = _decoder_stacks(dec, grid, n)
    for lo in range(0, n, _BLOCK):
        b = slice(lo, lo + _BLOCK)
        jc = js[b]
        if dec is not None:
            r[b], jc = _coupling(jc, hd[b], jd[b])
        decay[b] = _decay(jc, gen.extra_lindblad)
        np.multiply(np.sqrt(grid.dt), jc, out=m1[b])
    m1.flags.writeable = False
    return _FixedParts(grid, js, r, decay, _frobenius(decay), m1)


def _fixed_parts(gen: CascadeGenerators, grid, js):
    """The generator's theta-free parts on ``grid``: kept from the last call
    when the grid and the sensor jump stack are the same, else built anew
    (a jump that depends on theta rebuilds them at every theta)."""
    fixed = gen._fixed
    if fixed is None or fixed.grid != grid or not np.array_equal(fixed.js, js):
        gen._fixed = None  # freed before the new parts are built
        gen._fixed = fixed = _build_fixed(gen, grid, js)
    return fixed


def step_matrices(gen: CascadeGenerators, theta: float, grid: TimeGrid,
                  max_step: float = 0.05) -> _engine.StepOps:
    """Tabulate the per-bin branch maps of the engines: (bins, D, D) Kraus
    stacks, or superoperator stacks once loss, dephasing, finite efficiency
    or a mixed initial state break purity, with one bin for static
    generators, else one per grid bin.  The theta-free parts come from the
    generator's memo (``_fixed_parts``); theta adds H_S x 1, and the
    no-click map is assembled in place, _BLOCK bins at a time."""
    dt = grid.dt
    ts = _bin_times(grid, not gen.time_dependent)
    hs, js = operator_stacks(gen.sensor, theta, ts)
    fixed = _fixed_parts(gen, grid, js)
    m0, m1 = np.empty_like(fixed.decay), fixed.m1
    for lo in range(0, len(ts), _BLOCK):
        b = slice(lo, lo + _BLOCK)
        h = _joint_h(hs[b], None if fixed.r is None else fixed.r[b], m0[b])
        _guard(h, fixed.decay[b], dt, max_step, ts[b], fixed.decay_norm[b])
        _kraus_a0(h, fixed.decay[b], dt)
    eta = gen.detector_eta
    if not (gen.extra_lindblad or eta < 1.0 or gen.initial_rho is not None):
        return _engine.StepOps(grid.n_steps, dt, m0, m1, gen.initial_state, pure=True)
    if len(ts) * gen.dim ** 4 * 16 > 2e9:
        raise CmsenseError("time-dependent superoperator table too large")
    rho = gen.initial_rho
    if rho is None:
        rho = np.outer(gen.initial_state, gen.initial_state.conj())
    s0, s1 = _superops(m0, m1 / np.sqrt(dt), gen.extra_lindblad, eta, dt)
    return _engine.StepOps(grid.n_steps, dt, s0, s1, rho.ravel(), pure=False)


def vacuum_probability(gen: CascadeGenerators, theta: float, grid: TimeGrid,
                       max_step: float = 0.05):
    """Probability that the detector never clicks over the grid: the
    weight of the initial state after the product of all no-click maps."""
    ops = step_matrices(gen, theta, grid, max_step)
    x = propagate_linear(ops.a0[0] if len(ops.a0) == 1 else ops.a0, ops.x0, ops.n_steps)
    return float(ops.weight(x[None])[0])


def _resolve_engine(engine):
    """"auto" is "segment" (click to click) for every model; "step" (bin
    by bin) may be forced as a cross-check."""
    if engine not in ("auto", "segment", "step"):
        raise CmsenseError(f"engine {engine!r} is not available (auto, segment, step)")
    return "segment" if engine == "auto" else engine


def _chunks(n, n_steps):
    """Spans of trajectory indices: all n records, split so that a chunk
    holds at most _CHUNK_BINS record-bins (the step core holds a bool
    per record-bin) but at least _CHUNK records."""
    size = max(_CHUNK, _CHUNK_BINS // max(n_steps, 1))
    return [(i, min(i + size, n)) for i in range(0, n, size)]


def _run_records(ops, kind, n_records, seed, given=None):
    """Sample (``given`` None) or replay the records ``given`` chunk by
    chunk, under the list ``ops`` of per-θ StepOps (one for sampling and
    for the step core); returns (list of click-index arrays, logL
    (Θ, n_records), thinning candidates of the segment core's sampling)."""
    hits, logl, cands = [], [], 0
    for a, b in _chunks(n_records, ops[0].n_steps):
        idx = np.arange(a, b)
        sub = None if given is None else given[a:b]
        if kind == "segment":
            h, ll, c = _engine.run_segments(ops, idx, seed, sub)
        else:
            (h, ll), c = _engine.run_steps(ops[0], idx, seed, sub), 0
        hits += h
        logl.append(np.reshape(ll, (len(ops), -1)))
        cands += c
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
                   engine="auto", max_step=0.05):
    """Sample n_traj records; returns (list of click-index arrays, logL, engine kind).
    ``threads`` is accepted for existing callers and has no effect."""
    kind = _resolve_engine(engine)
    indices, logl, _ = _run_records([step_matrices(gen, theta, grid, max_step)], kind,
                                    n_traj, seed)
    return indices, logl[0], kind


def replay_records(gen, theta, indices, grid, engine_kind="auto", max_step=0.05):
    """Log-likelihoods of stored records (click-index arrays) at the
    parameter value theta, (n_records,), or at each value of a 1-D theta
    array, (n_theta, n_records).

    The segment core replays the whole θ set of a static model in one
    pass, its tables stacked; per-bin tables (time-dependent models) and
    the step core replay one θ at a time, each table freed before the
    next is built.
    """
    _check_click_indices(indices, grid.n_steps)
    thetas = [float(t) for t in np.atleast_1d(theta)]
    kind = _resolve_engine(engine_kind)
    stacked = kind == "segment" and not gen.time_dependent
    sets = [thetas] if stacked else [[th] for th in thetas]
    logl = np.concatenate([
        _run_records([step_matrices(gen, th, grid, max_step) for th in ths], kind,
                     len(indices), 0, indices)[1]
        for ths in sets])
    return logl if np.ndim(theta) else logl[0]


@dataclass(eq=False)
class FisherEstimate:
    """Monte Carlo Fisher information of the counting record.

    value = mean of squared finite-difference scores; std_error is the
    standard error of that mean.  mean_score should vanish within a few
    mean_score_se (it does up to the O(dt) discretization bias);
    halving_dev reports the largest relative change of a score when the
    finite-difference step is halved, over the diagnostic subset (None
    when all its scores are round-off: a dark or null record set);
    null_point is set when every score is exactly zero; n_steps, chunks
    (record chunks per pass), seconds (wall time) and candidates (mean
    thinning candidates per record, None on the step core) the cost.
    """

    value: float
    std_error: float
    n_traj: int
    theta_step: float
    mean_score: float
    mean_score_se: float
    halving_dev: Optional[float]
    mean_clicks: float
    engine: str
    seed: int
    null_point: bool
    n_steps: int
    chunks: int
    seconds: float
    candidates: Optional[float]


def fisher_from_trajectories(gen: CascadeGenerators, theta: float, grid: TimeGrid,
                             n_traj: int, theta_step: float = 1e-3,
                             seed: int = 0, engine: str = "auto",
                             max_step: float = 0.05) -> FisherEstimate:
    """Estimate the Fisher information of the record at theta.

    Samples records at theta, replays each at theta +/- theta_step and
    averages the squared central-difference score.  A fraction of the
    records is replayed again at half the step as a discretization
    check.
    """
    t0 = perf_counter()
    eps = theta_step
    kind = _resolve_engine(engine)
    indices, _, cands = _run_records([step_matrices(gen, theta, grid, max_step)], kind,
                                     n_traj, seed)
    lp, lm = replay_records(gen, [theta + eps, theta - eps], indices, grid,
                            kind, max_step)
    scores = (lp - lm) / (2.0 * eps)

    m = int(np.ceil(_HALVING_FRACTION * n_traj))
    halving_dev = 0.0
    ulp = np.finfo(float).eps * np.maximum(1.0, np.maximum(abs(lp[:m]), abs(lm[:m]))) / eps
    if m > 0 and np.all(np.abs(scores[:m]) < _SCORE_ROUNDOFF * ulp):
        halving_dev = None
    elif m > 0:
        lp2, lm2 = replay_records(gen, [theta + 0.5 * eps, theta - 0.5 * eps],
                                  indices[:m], grid, kind, max_step)
        s2 = (lp2 - lm2) / eps
        scale = max(float(np.abs(scores[:m]).max(initial=0.0)), 1e-12)
        halving_dev = float(np.abs(s2 - scores[:m]).max(initial=0.0) / scale)

    sq = scores ** 2
    value = float(sq.mean())
    std_error = float(sq.std(ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else 0.0
    mean_clicks = float(np.mean([len(h) for h in indices]))
    return FisherEstimate(
        value=value, std_error=std_error, n_traj=n_traj, theta_step=eps,
        mean_score=float(scores.mean()),
        mean_score_se=float(scores.std(ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else 0.0,
        halving_dev=halving_dev, mean_clicks=mean_clicks, engine=kind, seed=seed,
        null_point=not scores.any(), n_steps=grid.n_steps,
        chunks=len(_chunks(n_traj, grid.n_steps)), seconds=perf_counter() - t0,
        candidates=cands / n_traj if kind == "segment" else None,
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
                   seed: int = 0, max_step: float = 0.05) -> MismatchResult:
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
                seed=seed + 7919 * i, max_step=max_step,
            )
        )
    xs = np.asarray(mismatches, dtype=float)
    fwhm = full_width_half_max(xs, np.array([f.value for f in fishers]))
    return MismatchResult(mismatches=xs, fisher=fishers, fwhm=fwhm)
