"""Cascaded sensor + decoder photon counting.

The decoder output is fed back as the input of nothing: sensor and
decoder emit into a shared unidirectional field, and the cascade
Hamiltonian

    H_c = H_S x 1 + 1 x H_D + (i/2)(J_D J_S^dag - J_S J_D^dag)

with collective jump J_c = J_S x 1 + 1 x J_D routes the sensor
emission through the decoder before detection.  A correctly matched
decoder interferes the two contributions destructively, so the
detector stays dark at the decoding point and the counting record
becomes maximally sensitive to the sensor parameter.

A record is the array of its click bin indices, sampled with per-bin
click probability p1 = eta tr(J_c rho J_c^dag) dt / tr(rho); its
log-likelihood is the log-trace of the record-conditioned unnormalized
state (-inf for a record of probability zero).  ``step_matrices``
chooses the branch maps once: Kraus pairs on pure states, else
superoperators on vectorized densities.  Fisher information is
estimated as the sample mean of squared central finite-difference
scores over trajectories, with a fixed-seed counter-based stream per
trajectory so the result is independent of chunking.  Static models
take the click-to-click segment core (binary no-click powers, sampling
by thinning), time-dependent ones the per-bin step core;
``engine="step"`` forces the step core as a cross-check.
Chunks run one after another in the calling thread.
"""

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import _engine
from .errors import CmsenseError, RecordLengthMismatch
from .linalg import dagger
from .models import SensorModel, _per_bin, _sigma, operator_stacks
from .propagate import TimeGrid, _batched_kron, _bin_times, _kraus_stacks, propagate_linear

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
    """Joint generators of the cascaded counting model.

    ``h_total`` and ``j_total`` map (t, theta) to joint-space matrices;
    theta enters through the sensor side only.  ``extra_lindblad`` holds
    constant undetected channels (loss, dephasing).  Exactly one of
    ``initial_state`` (pure) / ``initial_rho`` is set.
    """

    dim: int
    h_total: Callable[[float, float], np.ndarray]
    j_total: Callable[[float, float], np.ndarray]
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
    imp = imperfections or Imperfections()
    ds = sensor.dim
    if dec is None:
        dim = ds
        h_total = lambda t, th: sensor.hamiltonian(t, th)
        j_total = lambda t, th: sensor.jump(t, th)
        time_dep = sensor.time_dependent
        psi0 = sensor.initial_state
        if isinstance(init, np.ndarray):
            psi0 = init
        extra = _two_level_channels(ds, 1, imp) if not imp.trivial else []
    else:
        dd = dec.dim
        dim = ds * dd
        eye_s = np.eye(ds, dtype=complex)
        eye_d = np.eye(dd, dtype=complex)

        def h_total(t, th):
            hs = sensor.hamiltonian(t, th)
            js = sensor.jump(t, th)
            hd = dec.hamiltonian_d(t)
            jd = dec.jump_d(t)
            return (
                np.kron(hs, eye_d)
                + np.kron(eye_s, hd)
                + 0.5j * (np.kron(js.conj().T, jd) - np.kron(js, jd.conj().T))
            )

        def j_total(t, th):
            return np.kron(sensor.jump(t, th), eye_d) + np.kron(eye_s, dec.jump_d(t))

        time_dep = sensor.time_dependent or dec.time_dependent
        if isinstance(init, np.ndarray):
            psi0 = init
        elif init == "product" or dec.purified_joint is None:
            psi0 = np.kron(sensor.initial_state, dec.initial_state_d)
        else:
            psi0 = dec.purified_joint
        extra = _two_level_channels(ds, dd, imp) if not imp.trivial else []

    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim == 1:
        vec, rho = psi0 / np.linalg.norm(psi0), None
    else:
        rho = psi0 / np.trace(psi0).real
        vec = None
    return CascadeGenerators(
        dim=dim, h_total=h_total, j_total=j_total, extra_lindblad=extra,
        detector_eta=imp.eta, initial_state=vec, initial_rho=rho,
        time_dependent=time_dep, sensor=sensor, decoder=dec,
    )


def _superops(m0, j, extra, eta, dt):
    """No-click / click superoperators of (n, D, D) operator stacks."""
    jj = _batched_kron(j, j.conj())
    s0 = _batched_kron(m0, m0.conj()) + (1.0 - eta) * dt * jj
    for l in extra:
        s0 = s0 + dt * np.kron(l, l.conj())[None]
    return s0, eta * dt * jj


def _decoder_stacks(dec, ts):
    """Per-bin (H_D, J_D) stacks: the decoder's tables, else its maps."""
    if dec.time_dependent and dec.tables is not None:
        t_tab, hd, jd = dec.tables
        if len(t_tab) != len(ts) or abs(t_tab[0] - ts[0]) > 1e-12:
            raise CmsenseError("decoder tables do not match the grid")
        return hd, jd
    static = not dec.time_dependent
    return (_per_bin(dec.hamiltonian_d, ts, dec.dim, static),
            _per_bin(dec.jump_d, ts, dec.dim, static))


def _joint_stacks(gen: CascadeGenerators, theta, ts):
    """Per-bin joint (H_c, J_c) stacks at the times ``ts``, assembled from
    the sensor and decoder stacks."""
    hs, js = operator_stacks(gen.sensor, theta, ts)
    dec = gen.decoder
    if dec is None:
        return hs, js
    hd, jd = _decoder_stacks(dec, ts)
    eye_s = np.broadcast_to(np.eye(gen.sensor.dim, dtype=complex), hs.shape)
    eye_d = np.broadcast_to(np.eye(dec.dim, dtype=complex), hd.shape)
    h = (_batched_kron(hs, eye_d) + _batched_kron(eye_s, hd)
         + 0.5j * (_batched_kron(dagger(js), jd) - _batched_kron(js, dagger(jd))))
    return h, _batched_kron(js, eye_d) + _batched_kron(eye_s, jd)


def step_matrices(gen: CascadeGenerators, theta: float, grid: TimeGrid,
                  max_step: float = 0.05) -> _engine.StepOps:
    """Tabulate the per-bin branch maps of the engines: (bins, D, D) Kraus
    stacks, or superoperator stacks once loss, dephasing, finite efficiency
    or a mixed initial state break purity, with one bin for static
    generators, else one per grid bin."""
    dt = grid.dt
    ts = _bin_times(grid, not gen.time_dependent)
    m0, m1 = _kraus_stacks(*_joint_stacks(gen, theta, ts), dt, max_step, ts,
                           gen.extra_lindblad)
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


def _resolve_engine(gen, engine):
    """"segment" (click to click) for static models, "step" (bin by bin)
    for time-dependent ones; "step" may be forced as a cross-check."""
    auto = "step" if gen.time_dependent else "segment"
    if engine not in ("auto", "step", auto):
        raise CmsenseError(f"engine {engine!r} is not available for this model "
                           "(static: auto, segment, step; time-dependent: auto, step)")
    return auto if engine == "auto" else engine


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
    kind = _resolve_engine(gen, engine)
    indices, logl, _ = _run_records([step_matrices(gen, theta, grid, max_step)], kind,
                                    n_traj, seed)
    return indices, logl[0], kind


def replay_records(gen, theta, indices, grid, engine_kind="auto", max_step=0.05):
    """Log-likelihoods of stored records (click-index arrays) at the
    parameter value theta, (n_records,), or at each value of a 1-D theta
    array, (n_theta, n_records).

    The segment core replays the whole θ set in one pass, its tables
    stacked; the step core replays one θ at a time, each table freed
    before the next is built.
    """
    _check_click_indices(indices, grid.n_steps)
    thetas = [float(t) for t in np.atleast_1d(theta)]
    kind = _resolve_engine(gen, engine_kind)
    sets = [thetas] if kind == "segment" else [[th] for th in thetas]
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
    kind = _resolve_engine(gen, engine)
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
