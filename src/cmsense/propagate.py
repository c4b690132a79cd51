"""Discrete-time propagation engines.

The emission field is built from a per-bin Kraus pair

    a0 = 1 - i H(t) dt - (1/2) J^dag J dt,      a1 = sqrt(dt) J,

with time-dependent operators sampled at the left endpoint of each
bin.  All higher-level quantities (master equation, generalized
two-parameter state, decoder synthesis, cascade sampling, brute-force
oracles) are defined on exactly this discretization, so equivalence
tests between routes are exact rather than asymptotic.

The pair is complete only to O(dt^2) per bin; raw traces therefore
drift by O(T dt) over a propagation.  That defect is left visible
(no hidden renormalization) and is cancelled downstream by defining
fidelities on unit-trace states.

All propagation is by products of per-bin maps (``propagate_linear``);
densities in row-major vec, where mu -> A mu B^dag is A (x) conj(B).
One loop walks the grid, a map per bin, for a final state and a series
alike; the generalized states of several table pairs walk it together
as one stack (``transfer`` of two lists of tables), and a run of bins
that repeats one map (a static model, the free-decay tail of a pulsed
one) is applied as one matrix power when only the final state is kept.

One builder tabulates every counting model: ``step_matrices`` gives the
per-bin branch maps of ``cascade_generators`` (a sensor alone, or cascaded
into a decoder), and the record engines take the θ-derivative of the
no-click maps from the same pass (``_theta_tables``).

A jump (theta-free in every model) that does not change in time comes
from ``operator_stacks`` as a stride-0 broadcast of one matrix, and the
tables keep it so: one J^dag J per block, a click stack ``a1`` that is
a read-only broadcast of one matrix, and one click kron per two-sided
map.  Per-bin jumps (a decoder's, or a sensor's that varies with t)
take the same formulas bin by bin, with the same bits.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ._engine import StepOps, _stack
from .errors import CmsenseError, StepTooLarge, TraceDrift, format_excess
from .linalg import dagger, frobenius_sq
from .models import SensorModel, _sigma, operator_stacks

__all__ = [
    "TimeGrid",
    "Imperfections",
    "CascadeGenerators",
    "cascade_generators",
    "step_matrices",
    "transfer",
    "propagate_linear",
    "evolve_density",
    "evolve_generalized",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid; n_steps * dt spans [t_start, t_end] exactly."""

    t_start: float
    t_end: float
    dt: float
    n_steps: int = field(init=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        span = self.t_end - self.t_start
        n = int(round(span / self.dt))
        if n < 0 or abs(n * self.dt - span) > 1e-12 * max(1.0, abs(span)):
            raise ValueError(
                f"grid span {span} is not an integer multiple of dt={self.dt}"
            )
        object.__setattr__(self, "n_steps", n)

    @property
    def times(self):
        """All n_steps+1 grid times including both ends."""
        return self.t_start + self.dt * np.arange(self.n_steps + 1)

    @property
    def left_times(self):
        """Left bin endpoints where operators are sampled."""
        return self.t_start + self.dt * np.arange(self.n_steps)


_BLOCK = 256
# the step guard: the largest dt*max(|H|, |J^dag J|) a Kraus table accepts
STEP_GUARD = 0.05


def _batched_kron(a, b, out=None):
    """np.kron of each matrix pair of two stacks (same multiply, same bits),
    a stack of one matrix paired with every matrix of the other, written
    into the contiguous stack ``out`` when given."""
    n, da, db = max(len(a), len(b)), a.shape[1], b.shape[1]
    if out is None:
        out = np.empty((n, da * db, da * db), dtype=np.result_type(a, b))
    np.multiply(a[:, :, None, :, None], b[:, None, :, None, :],
                out=out.reshape(n, da, db, da, db))
    return out


def _static(stack):
    """Whether a (bins, m, m) stack of several bins is one matrix for every
    bin: a stride-0 broadcast view, as ``operator_stacks`` returns a static
    jump.  A one-bin stack takes the per-bin route, which costs no more."""
    return len(stack) > 1 and stack.strides[0] == 0


def _guard(h, decay, dt, max_step, ts):
    """Raise StepTooLarge at the first bin where dt*max(|H|, |decay|) in
    the spectral norm exceeds max_step, ``decay`` one matrix for every bin
    or one per bin.  The Frobenius norm bounds it from above, so only the
    bins that norm flags get the exact one.  The margin covers the
    round-off of a bound that equals the spectral norm (a rank-one matrix)."""
    frob = lambda m: np.sqrt(frobenius_sq(m))
    load = dt * np.maximum(frob(h), frob(decay)) * (1.0 + 1e-9)
    flagged = np.flatnonzero(load > max_step)
    if not len(flagged):
        return
    decay = np.broadcast_to(decay, h.shape)
    load = dt * np.maximum(np.linalg.norm(h[flagged], 2, axis=(1, 2)),
                           np.linalg.norm(decay[flagged], 2, axis=(1, 2)))
    bad = np.flatnonzero(load > max_step)
    if len(bad):
        raise StepTooLarge(
            f"dt*max(|H|,|J^dag J|) = {format_excess(load[bad[0]], max_step)} "
            f"exceeds {max_step} "
            f"at t={ts[flagged[bad[0]]]:.4g}; refine dt or widen max_step explicitly"
        )


def _decay(j, extra):
    """J^dag J + sum_l L_l^dag L_l of a jump stack and the constant
    undetected channels ``extra``, summed in that order."""
    decay = dagger(j) @ j
    for l in extra:
        decay = decay + (l.conj().T @ l)[None]
    return decay


def _joint(hs, js, dec, out):
    """The joint (H, J) of blocks of sensor stacks, H written into ``out``:
    (H_S, J_S) without a decoder, else their cascade into the decoder
    stacks dec = (H_D, J_D): H_c = H_S x 1 + [1 x H_D + (i/2)(J_S^dag x J_D
    - J_S x J_D^dag)] and J_c = J_S x 1 + 1 x J_D."""
    if dec is None:
        out[...] = hs
        return out, js
    hd, jd = dec
    eye_s, eye_d = (np.eye(a.shape[-1], dtype=complex)[None] for a in (js, hd))
    # a static jump enters as its one matrix, broadcast by the products
    js1 = js[:1] if _static(js) else js
    jd1 = jd[:1] if _static(jd) else jd
    cross = _batched_kron(dagger(js1), jd1)
    cross -= _batched_kron(js1, dagger(jd1))
    np.multiply(0.5j, cross, out=cross)
    r = _batched_kron(eye_s, hd)
    r += cross
    h = _batched_kron(hs, eye_d, out)
    h += r
    jc = np.add(_batched_kron(js1, eye_d), _batched_kron(eye_s, jd1))
    return h, jc if len(jc) == len(js) else np.broadcast_to(jc, js.shape[:1] + jc.shape[1:])


def _kraus_tables(hs, js, dt, max_step, ts, dec=None, extra=(), spare=(None, None)):
    """Guarded Kraus stacks of per-bin sensor stacks sampled at ``ts``,
    cascaded into the decoder stacks ``dec`` when given (``_joint``):
    a0 = 1 - i H dt - (1/2)(J^dag J + sum_l L_l^dag L_l) dt and a1 =
    sqrt(dt) J, with ``extra`` the constant undetected channels L_l.
    Built _BLOCK bins at a time into the two stacks, keeping nothing else;
    the stacks ``spare`` (a0, a1) of tables no longer needed are written
    over where they fit (``_stack``).  A static joint jump (stride-0
    ``js``, and decoder jump if cascaded) takes one J^dag J per block, and
    a1 is a read-only broadcast of one matrix."""
    n, dim = len(hs), hs.shape[-1] * (1 if dec is None else dec[0].shape[-1])
    static = _static(js) and (dec is None or _static(dec[1]))
    a0 = _stack((n, dim, dim), spare[0])
    a1 = _stack((0 if static else n, dim, dim), spare[1])  # static: set below
    for lo in range(0, n, _BLOCK):
        b = slice(lo, lo + _BLOCK)
        h, j = _joint(hs[b], js[b], None if dec is None else (dec[0][b], dec[1][b]), a0[b])
        if static:
            j = j[:1]
            a1 = np.broadcast_to(np.sqrt(dt) * j, a0.shape)
        else:
            np.multiply(np.sqrt(dt), j, out=a1[b])
        decay = _decay(j, extra)
        _guard(h, decay, dt, max_step, ts[b])
        np.multiply(1j * dt, h, out=h)  # a0 over H, in the order of its formula
        np.subtract(np.eye(dim, dtype=complex), h, out=h)
        h -= 0.5 * dt * decay
    return a0, a1


def _bin_times(grid, static, lo=0, hi=None):
    """Left endpoints of bins lo..hi-1 (every bin by default) at which
    operators are sampled: t_start alone when static."""
    return grid.t_start + grid.dt * np.arange(
        lo, 1 if static else grid.n_steps if hi is None else hi)


def transfer(ta, tb):
    """Per-bin maps mu -> sum_s A^s mu B^s^dag in row-major vec for
    :func:`propagate_linear`, with A from the Kraus table ``ta`` and B
    from ``tb``, or for two equal-length lists of tables the maps of each
    pair (ta[p], tb[p]), stacked after the bin axis: one matrix (one per
    pair) when the tables hold a single bin, else a ``_Transfer`` builder.
    Static click stacks (read-only broadcasts of one matrix) give one click
    kron per pair, added to each block's no-click krons."""
    stacked = isinstance(ta, (list, tuple))
    tas, tbs = (list(ta), list(tb)) if stacked else ([ta], [tb])
    maps = _Transfer(tas, tbs, stacked)
    return maps(0, 1)[0] if maps.n == 1 else maps


class _Transfer:
    """``maps(lo, hi)``: the maps of bins lo..hi-1 of the table pairs
    (tas[p], tbs[p]), every pair's from one ``_batched_kron`` call.
    ``blocks(n)`` gives those of bins 0..n-1 as :func:`propagate_linear`
    walks them: a run of bins over which every table's no-click stack
    repeats one matrix, the click stacks being static, whole, as a
    read-only broadcast of its first bin's maps; the bins between runs in
    blocks of at most _BLOCK / pairs bins, so a stack holds no more maps
    at a time than one pair does."""

    def __init__(self, tas, tbs, stacked):
        self.tas, self.tbs, self.d = tas, tbs, tas[0].a0.shape[-1]
        self.n = len(tas[0].a0)
        self.shape = ((len(tas),) if stacked else ()) + (self.d ** 2, self.d ** 2)
        self.click, self.runs = None, []
        if all(_static(t.a1) for t in tas + tbs):
            self.click = self._krons("a1", 0, 1)
            same = np.logical_and.reduce([(a[1:] == a[:-1]).all(axis=(1, 2)) for a in
                                          {id(t.a0): t.a0 for t in tas + tbs}.values()])
            heads = np.concatenate(([0], np.flatnonzero(~same) + 1, [self.n]))
            self.runs = [(a, b) for a, b in zip(heads[:-1], heads[1:]) if b - a > 1]

    def _krons(self, name, lo, hi):  # (bins, pairs, d^2, d^2)
        side = lambda ts: np.stack([getattr(t, name)[lo:hi] for t in ts], 1).reshape(
            -1, self.d, self.d)
        return _batched_kron(side(self.tas), side(self.tbs).conj()).reshape(
            hi - lo, len(self.tas), self.d ** 2, self.d ** 2)

    def __call__(self, lo, hi):
        m = self._krons("a0", lo, hi)
        m += self._krons("a1", lo, hi) if self.click is None else self.click
        return m.reshape((hi - lo,) + self.shape)

    def blocks(self, n):
        step, lo = max(1, _BLOCK // len(self.tas)), 0
        for a, b in self.runs + [(n, n)]:
            a, b = min(a, n), min(b, n)
            for k in range(lo, a, step):
                yield self(k, min(k + step, a))
            if b > a:
                yield np.broadcast_to(self(a, a + 1), (b - a,) + self.shape)
            lo = max(lo, b)


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
    of sensor and decoder initial states; an explicit array is used as
    given (vector or density).
    """
    if isinstance(init, np.ndarray):
        psi0 = init
    elif init != "auto":
        raise CmsenseError(f"init must be 'auto' or an array, got {init!r}")
    elif dec is None:
        psi0 = sensor.initial_state
    elif dec.purified_joint is None:
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


def _decoder_stacks(dec, grid, n, lo=0):
    """The decoder's (H_D, J_D) stacks over the n bins of ``grid`` from bin
    lo: its one pair broadcast, or its per-bin tables, which hold for their
    own grid only."""
    if not dec.time_dependent:
        return (np.broadcast_to(dec.hd, (n,) + dec.hd.shape[1:]),
                np.broadcast_to(dec.jd, (n,) + dec.jd.shape[1:]))
    if grid != dec.grid:
        raise CmsenseError("decoder tables do not match the grid")
    return dec.hd[lo:lo + n], dec.jd[lo:lo + n]


def _pure(gen):
    """Whether ``gen`` runs on Kraus pairs and state vectors (no extra
    channel, unit efficiency, a pure initial state), else on superoperators."""
    return not (gen.extra_lindblad or gen.detector_eta < 1.0 or gen.initial_rho is not None)


def _theta_tables(gen, thetas, grid, max_step, lo=0, hi=None, spare=None, scoring=False):
    """The ``step_matrices`` of each θ of ``thetas``, a static model's θ
    as the bins of one stacked ``_kraus_tables`` pass: the same per-bin
    arithmetic, so the same bits.  Per-bin tables come one θ per call,
    over bins lo..hi-1 of the grid (all by default): bit for bit those
    bins of the whole grid's tables, as StepOps of hi - lo steps, written
    over the stacks of the StepOps ``spare`` where they fit.  Returns them
    with dA0, when ``scoring`` the θ-derivative of the no-click maps at the
    one θ (else None): θ enters through G alone, so dA0 = -i dt (G x 1_D)
    on Kraus pairs, one static matrix, and the product rule dA0 x conj(A0)
    + A0 x conj(dA0) on superoperators; the click map is θ-free."""
    dt, eta = grid.dt, gen.detector_eta
    hi = grid.n_steps if hi is None else hi
    ts = _bin_times(grid, not gen.time_dependent, lo, hi)
    n = len(ts)
    dec = (None if gen.decoder is None else
           _decoder_stacks(gen.decoder, grid, n * len(thetas), lo))
    m0, m1 = _kraus_tables(*operator_stacks(gen.sensor, thetas, ts), dt, max_step,
                           np.tile(ts, len(thetas)), dec, gen.extra_lindblad,
                           (None, None) if spare is None else (spare.a0, spare.a1))
    g = (gen.sensor.generator if gen.decoder is None
         else np.kron(gen.sensor.generator, np.eye(gen.decoder.dim)))
    da0 = -1j * dt * g[None] if scoring else None
    if _pure(gen):
        x0, pure = gen.initial_state, True
    else:
        if n * gen.dim ** 4 * 16 > 2e9:
            raise CmsenseError("time-dependent superoperator table too large")
        rho = gen.initial_rho
        if rho is None:
            rho = np.outer(gen.initial_state, gen.initial_state.conj())
        if scoring:
            da0 = _batched_kron(da0, m0.conj()) + _batched_kron(m0, da0.conj())
        m0, m1 = _superops(m0, m1 / np.sqrt(dt), gen.extra_lindblad, eta, dt)
        x0, pure = rho.ravel(), False
    return [StepOps(hi - lo, dt, m0[i * n:(i + 1) * n], m1[i * n:(i + 1) * n],
                    x0, pure=pure) for i in range(len(thetas))], da0


def step_matrices(gen: CascadeGenerators, theta: float, grid: TimeGrid,
                  max_step: float = STEP_GUARD) -> StepOps:
    """Tabulate the per-bin branch maps of the engines: (bins, D, D) Kraus
    stacks, or superoperator stacks once loss, dephasing, finite efficiency
    or a mixed initial state break purity, with one bin for static
    generators, else one per grid bin (a static jump's ``a1`` stride 0)."""
    return _theta_tables(gen, [theta], grid, max_step)[0][0]


def propagate_linear(maps, x0, n_steps, series=False):
    """Apply x_{k+1} = M_k x_k for k = 0..n_steps-1, starting from x0, or
    from each row of a stack x0 (pairs, m) under its own maps.

    ``maps`` is one (m, m) matrix for every bin (static model), an
    (n_steps, m, m) table, or a :func:`transfer` builder, walked in its
    ``blocks`` (a builder bounds the transient memory of time-dependent
    propagation); a stack takes (pairs, m, m) in place of each (m, m).
    One loop walks the grid, one matvec (one stacked matmul) per bin, and
    returns x_{n_steps}, or with ``series=True`` all n_steps + 1 states.
    Without a series, a block that is a stride-0 broadcast of one matrix
    (a static model, or a run of equal bins) is applied as one matrix
    power.
    """
    x = np.asarray(x0, dtype=complex)
    stacked = x.ndim == 2
    if isinstance(maps, _Transfer):
        blocks = maps.blocks(n_steps)
    else:
        table = np.asarray(maps)
        if table.ndim == x.ndim + 1:  # one matrix for every bin
            table = np.broadcast_to(table, (n_steps,) + table.shape)
        blocks = [table[:n_steps]]
    if stacked:
        x = x[..., None]  # one column per pair
    # preallocated: collecting per-bin arrays in a list fragments the heap
    if series:
        out = np.empty((n_steps + 1,) + x.shape, dtype=complex)
        out[0] = x
    k = 0
    for block in blocks:
        if not series and _static(block):
            x = np.linalg.matrix_power(block[0], len(block)) @ x
            continue
        for m in block:
            x = m @ x
            if series:
                k += 1
                out[k] = x
    if series:
        x = out
    return x[..., 0] if stacked else x


def evolve_density(model: SensorModel, theta: float, grid: TimeGrid,
                   max_step: float = STEP_GUARD, trace_tol: float = 1e-2):
    """Master-equation evolution by repeated Kraus application.

    Returns the full (n_steps+1, D, D) trajectory of density matrices.
    Trace is monitored, not renormalized; the O(T dt) completeness
    drift of the first-order pair is expected and tolerated up to
    ``trace_tol``, beyond which TraceDrift signals an unstable grid.
    """
    tab = step_matrices(cascade_generators(model), theta, grid, max_step)
    psi = model.initial_state
    out = propagate_linear(transfer(tab, tab), np.outer(psi, psi.conj()).ravel(),
                           grid.n_steps, series=True).reshape(-1, model.dim, model.dim)
    drift = np.abs(np.trace(out, axis1=1, axis2=2).real - 1.0)
    bad = np.flatnonzero(drift[1:] > trace_tol) + 1
    if len(bad):
        k = bad[0]
        raise TraceDrift(f"|tr rho - 1| = {drift[k]:.3g} at step {k} "
                         f"(t={grid.t_start + k * grid.dt:.4g}); refine dt")
    return out


def evolve_generalized(model: SensorModel, theta1: float, theta2: float,
                       grid: TimeGrid, max_step: float = STEP_GUARD):
    """The generalized density operator mu_{theta1,theta2}(T): mu(0) =
    rho_S(0) propagated under mu -> sum_s A^s(theta1) mu A^s(theta2)^dag.

    At theta1 = theta2 this is exactly the evolve_density update.
    """
    gen = cascade_generators(model)
    ta = step_matrices(gen, theta1, grid, max_step)
    tb = ta if theta2 == theta1 else step_matrices(gen, theta2, grid, max_step)
    mu0 = np.outer(model.initial_state, model.initial_state.conj())
    return propagate_linear(transfer(ta, tb), mu0.ravel(), grid.n_steps).reshape(mu0.shape)
