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

A jump that depends on neither t nor theta (every built-in sensor) comes
from ``operator_stacks`` as a stride-0 broadcast of one matrix, and the
tables keep it so: one J^dag J per block, a click stack ``a1`` that is
a read-only broadcast of one matrix, and one click kron per two-sided
map.  Per-bin jumps (a decoder's, or a sensor's that varies with t)
take the same formulas bin by bin, with the same bits.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._engine import StepOps
from .errors import StepTooLarge, TraceDrift, format_excess
from .linalg import dagger, frobenius_sq
from .models import SensorModel, operator_stacks

__all__ = [
    "TimeGrid",
    "pair_table",
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


def _kraus_tables(hs, js, dt, max_step, ts, dec=None, extra=()):
    """Guarded Kraus stacks of per-bin sensor stacks sampled at ``ts``,
    cascaded into the decoder stacks ``dec`` when given (``_joint``):
    a0 = 1 - i H dt - (1/2)(J^dag J + sum_l L_l^dag L_l) dt and a1 =
    sqrt(dt) J, with ``extra`` the constant undetected channels L_l.
    Built _BLOCK bins at a time into the two stacks, keeping nothing else.
    A static joint jump (stride-0 ``js``, and decoder jump if cascaded)
    takes one J^dag J per block, and a1 is a read-only broadcast of one
    matrix."""
    n, dim = len(hs), hs.shape[-1] * (1 if dec is None else dec[0].shape[-1])
    static = _static(js) and (dec is None or _static(dec[1]))
    a0 = np.empty((n, dim, dim), dtype=complex)
    a1 = np.empty((0 if static else n, dim, dim), dtype=complex)  # static: set below
    for lo in range(0, n, _BLOCK):
        b = slice(lo, lo + _BLOCK)
        h, j = _joint(hs[b], js[b], None if dec is None else (dec[0][b], dec[1][b]), a0[b])
        if static:
            j = j[:1]
            a1 = np.broadcast_to(np.sqrt(dt) * j, a0.shape)
        else:
            np.multiply(np.sqrt(dt), j, out=a1[b])
        decay = dagger(j) @ j
        for l in extra:
            decay = decay + (l.conj().T @ l)[None]
        _guard(h, decay, dt, max_step, ts[b])
        np.multiply(1j * dt, h, out=h)  # a0 over H, in the order of its formula
        np.subtract(np.eye(dim, dtype=complex), h, out=h)
        h -= 0.5 * dt * decay
    return a0, a1


def _bin_times(grid, static):
    """Left endpoints at which operators are sampled: t_start alone when static."""
    return grid.t_start + grid.dt * np.arange(1 if static else grid.n_steps)


def transfer(ta, tb):
    """Per-bin maps mu -> sum_s A^s mu B^s^dag in row-major vec for
    :func:`propagate_linear`, with A from the Kraus table ``ta`` and B
    from ``tb``: one matrix when the tables hold a single bin.  Static
    click stacks (read-only broadcasts of one matrix) give one click kron,
    added to each block's no-click krons."""
    click = None
    if _static(ta.a1) and _static(tb.a1):
        click = _batched_kron(ta.a1[:1], tb.a1[:1].conj())

    def maps(lo, hi):
        m = _batched_kron(ta.a0[lo:hi], tb.a0[lo:hi].conj())
        m += _batched_kron(ta.a1[lo:hi], tb.a1[lo:hi].conj()) if click is None else click
        return m
    return maps(0, 1)[0] if len(ta.a0) == 1 else maps


def pair_table(model: SensorModel, theta: float, grid: TimeGrid, max_step: float = STEP_GUARD):
    """The guarded Kraus pairs of ``model`` at theta over the bins of ``grid``:
    pure StepOps from the model's initial state, one bin for a static model.
    A jump that does not change in time leaves ``a1`` a read-only broadcast
    of its one matrix (stride 0)."""
    ts = _bin_times(grid, not model.time_dependent)
    a0, a1 = _kraus_tables(*operator_stacks(model, theta, ts), grid.dt, max_step, ts)
    return StepOps(grid.n_steps, grid.dt, a0, a1, model.initial_state, pure=True)


def _tree_product(s):
    """s[-1] @ ... @ s[0] by pairwise reduction, keeping time order."""
    while len(s) > 1:
        prod = s[1::2] @ s[0:len(s) - 1:2]
        s = np.concatenate([prod, s[-1:]]) if len(s) % 2 else prod
    return s[0]


def propagate_linear(maps, x0, n_steps, series=False):
    """Apply x_{k+1} = M_k x_k for k = 0..n_steps-1, starting from x0.

    ``maps`` is one (m, m) matrix for every bin (static model), an
    (n_steps, m, m) table, or a builder ``maps(lo, hi)`` of the table
    of bins lo..hi-1, called ``_BLOCK`` bins at a time (bounding the
    transient memory of time-dependent propagation).  Returns
    x_{n_steps} (a matrix power, or tree-reduced products per block),
    or with ``series=True`` all n_steps + 1 states, one matvec per bin.
    """
    x = np.asarray(x0, dtype=complex)
    if not callable(maps):
        table = np.asarray(maps)
        if table.ndim == 2:
            if not series:
                return np.linalg.matrix_power(table, n_steps) @ x
            table = np.broadcast_to(table, (n_steps,) + table.shape)
        maps = lambda lo, hi: table[lo:hi]
    if not series:
        for lo in range(0, n_steps, _BLOCK):
            x = _tree_product(maps(lo, min(lo + _BLOCK, n_steps))) @ x
        return x
    # preallocated: collecting per-bin arrays in a list fragments the heap
    out = np.empty((n_steps + 1,) + x.shape, dtype=complex)
    out[0] = x
    for lo in range(0, n_steps, _BLOCK):
        for k, m in enumerate(maps(lo, min(lo + _BLOCK, n_steps)), lo + 1):
            out[k] = x = m @ x
    return out


def evolve_density(model: SensorModel, theta: float, grid: TimeGrid,
                   max_step: float = STEP_GUARD, trace_tol: float = 1e-2):
    """Master-equation evolution by repeated Kraus application.

    Returns the full (n_steps+1, D, D) trajectory of density matrices.
    Trace is monitored, not renormalized; the O(T dt) completeness
    drift of the first-order pair is expected and tolerated up to
    ``trace_tol``, beyond which TraceDrift signals an unstable grid.
    """
    tab = pair_table(model, theta, grid, max_step)
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
                       grid: TimeGrid, max_step: float = STEP_GUARD,
                       tables: Optional[tuple] = None):
    """The generalized density operator mu_{theta1,theta2}(T): mu(0) =
    rho_S(0) propagated under mu -> sum_s A^s(theta1) mu A^s(theta2)^dag.

    At theta1 = theta2 this is exactly the evolve_density update.
    ``tables`` lets callers reuse the ``pair_table`` StepOps of the two
    parameter values (an optimization for finite-difference sweeps).
    """
    if tables is None:
        ta = pair_table(model, theta1, grid, max_step)
        tb = ta if theta2 == theta1 else pair_table(model, theta2, grid, max_step)
    else:
        ta, tb = tables
    mu0 = np.outer(model.initial_state, model.initial_state.conj())
    return propagate_linear(transfer(ta, tb), mu0.ravel(), grid.n_steps).reshape(mu0.shape)
