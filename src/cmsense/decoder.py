"""Decoder synthesis: the auxiliary system that turns photon counting
into an optimal measurement of the emission field.

The synthesis runs entirely on the discrete bin decomposition.  With
A^0, A^1 the sensor's Kraus pair (``step_matrices`` of its decoder-free
cascade) and R_n = sqrt(rho_tilde(t_n)) W0 the left-normalization gauge
(rho_tilde solves the master equation from the identity), the per-bin
left-normalized tensors are

    B^s_n = R_n^{-1} A^s R_{n-1},

and the decoder generators are read off their complex conjugates:

    Bbar^0 = 1 - i H_D dt - (1/2) J_D^dag J_D dt,
    Bbar^1 = -sqrt(dt) J_D^dag.

``build_decoder`` extracts H_D(t), J_D(t) exactly from this relation
per bin, which stays correct for arbitrary time dependence (the closed
form below drops a gauge-motion term proportional to dR/dt and is only
exact once rho_tilde has relaxed).  ``stationary_decoder`` evaluates
that closed form

    H_D = -(1/2){ R^T [conj(H) - (i/2) J^T conj(J)] R^-T + h.c. },
    J_D = -R^T J^T R^-T

at the steady state, where it is exact.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateSteadyState,
    NonUnitaryGauge,
    RankDeficientRho,
    RankDeficientSteadyState,
)
from .linalg import dagger, psd_sqrt, robust_inv
from .models import SensorModel
from .propagate import TimeGrid, cascade_generators, propagate_linear, step_matrices, transfer

__all__ = [
    "DecoderModel",
    "build_decoder",
    "stationary_decoder",
    "two_level_decoder",
    "liouvillian_steady_state",
    "verify_decoding",
]

_RANK_TOL = 1e-10  # floor of rho_tilde's smallest eigenvalue over its trace
_KERNEL_TOL = 1e-9  # Lindblad eigenvalues below this times the largest are the kernel
_MIN_POPULATION = 1e-10  # floor of the steady-state populations


@dataclass(eq=False)
class DecoderModel:
    """Generators of the decoding system, as per-bin (H_D, J_D) stacks.

    ``hd``/``jd`` have shape (1, D, D) for a constant pair, else
    (n_steps, D, D): one step-constant pair per bin of ``grid``, the
    synthesis grid, which is None for a constant pair.
    ``initial_state_d`` is the product-form decoder state W0^dag psi_S(0)
    of the underlying theorem.  ``purified_joint`` is the joint
    sensor+decoder vector vec(R(0))/|R(0)| that the cascade uses by
    default: it is the initialization under which the all-zeros record
    carries probability 1 - O(dt) (see the vacuum-output tests).
    ``herm_residual`` is max |H - H^dag| over bins of the raw
    H = i(Bbar^0 - 1 + J_D^dag J_D dt/2)/dt, an O(dt) check that the
    extracted pair reproduces the left-normalized tensors.
    """

    hd: np.ndarray
    jd: np.ndarray
    initial_state_d: np.ndarray
    grid: Optional[TimeGrid] = None
    purified_joint: Optional[np.ndarray] = None
    herm_residual: float = 0.0

    @property
    def dim(self):
        return self.hd.shape[-1]

    @property
    def time_dependent(self):
        return self.grid is not None


def _check_unitary(w0, dim):
    if w0 is None:
        return np.eye(dim, dtype=complex)
    w0 = np.asarray(w0, dtype=complex)
    if w0.shape != (dim, dim):
        raise NonUnitaryGauge(f"W0 shape {w0.shape} != ({dim}, {dim})")
    if np.abs(w0.conj().T @ w0 - np.eye(dim)).max() > 1e-12:
        raise NonUnitaryGauge("W0^dag W0 deviates from identity beyond 1e-12")
    return w0


def _identity_series(tab, dim, n_steps):
    """rho_tilde at every grid time: the master equation solved from the
    identity, rho_tilde(0) = 1_D, under the Kraus table ``tab``."""
    eye = np.eye(dim, dtype=complex).ravel()
    return propagate_linear(transfer(tab, tab), eye, n_steps, series=True).reshape(-1, dim, dim)


def build_decoder(model: SensorModel, theta: float, grid: TimeGrid, w0=None):
    """Synthesize the decoder's per-bin generator stacks along the grid.

    Exact per-bin extraction from the left-normalized tensors; valid
    for arbitrary time-dependent sensor dynamics.  H_D and J_D hold one
    pair per bin of ``grid``, constant over the bin like the Kraus pair
    it comes from, and the decoder is usable on that grid only.
    RankDeficientRho names the first bin where rho_tilde loses rank
    relative to its trace.
    """
    D = model.dim
    w0 = _check_unitary(w0, D)
    tab = step_matrices(cascade_generators(model), theta, grid)
    n = grid.n_steps
    dt = grid.dt

    # outputs before the batch temporaries: allocated after them, they
    # would pin the freed heap below (+8 MB peak RSS in a later cascade).
    # Each (n, D, D) temporary is freed once used, and the products are
    # formed in place in the order of their formulas, so the bits are
    # those of the plain expressions
    hd = np.empty((n, D, D), dtype=complex)
    jd = np.empty_like(hd)
    rt = _identity_series(tab, D, n)[1:]
    tr = np.trace(rt, axis1=1, axis2=2).real
    sym = dagger(rt)
    sym += rt
    sym *= 0.5
    del rt
    ev, vec = np.linalg.eigh(sym)
    del sym
    bad = np.flatnonzero(ev[:, 0] <= _RANK_TOL * tr)
    if len(bad):
        k = int(bad[0])
        raise RankDeficientRho(
            f"rho_tilde rank-deficient at t={grid.t_start + (k + 1) * dt:.6g} "
            f"(min eigenvalue {ev[k, 0]:.3e}, trace {tr[k]:.3e})"
        )
    # r = sqrt(rho_tilde) W0 has the singular values sqrt(ev), so the floor
    # above bounds its condition number by 1/sqrt(_RANK_TOL)
    vh = dagger(vec)
    vec *= np.sqrt(ev)[:, None, :]
    r = vec @ vh
    del vec, vh
    r = r @ w0
    ri = np.linalg.inv(r)
    r_prev = np.concatenate([w0[None], r[:-1]])
    del r
    # J_D = -B^1^T / sqrt(dt) (the dagger of conj(B^1)), with B^1 in hd for
    # now; then conj(B^0) in hd, which becomes H in place
    buf = np.empty_like(hd)
    np.matmul(np.matmul(ri, tab.a1, out=buf), r_prev, out=hd)
    np.negative(np.swapaxes(hd, -1, -2), out=jd)
    jd /= np.sqrt(dt)
    h = np.matmul(np.matmul(ri, tab.a0, out=buf), r_prev, out=hd)
    del ri, r_prev, tab
    np.conjugate(h, out=h)
    # H = (i/dt) (conj(B^0) - 1 + (dt/2) J_D^dag J_D)
    h -= np.eye(D)
    jj = dagger(jd)
    jj *= 0.5 * dt
    h += np.matmul(jj, jd, out=buf)
    h *= 1j / dt
    hc = np.conjugate(np.swapaxes(h, -1, -2), out=jj)  # dagger(H)
    herm_res = float(np.abs(np.subtract(h, hc, out=buf)).max()) if n else 0.0
    del buf
    h += hc  # hd = (H + H^dag) / 2
    h *= 0.5
    del jj, hc

    return DecoderModel(
        hd=hd, jd=jd,
        initial_state_d=w0.conj().T @ model.initial_state,
        grid=grid,
        purified_joint=w0.ravel() / np.sqrt(D),
        herm_residual=herm_res,
    )


def liouvillian_steady_state(model: SensorModel, theta: float):
    """Unique steady state of the (time-independent) Lindblad generator,
    its operators taken at t = 0.

    Raises DegenerateSteadyState when the generator kernel is not
    one-dimensional.
    """
    h = model.hamiltonian(0.0, theta)
    j = model.jump(0.0, theta)
    D = model.dim
    eye = np.eye(D)
    jj = j.conj().T @ j
    L = (
        -1j * (np.kron(h, eye) - np.kron(eye, h.conj()))
        + np.kron(j, j.conj())
        - 0.5 * (np.kron(jj, eye) + np.kron(eye, jj.conj()))
    )
    w, v = np.linalg.eig(L)
    scale = max(1.0, float(np.abs(w).max()))
    null = np.where(np.abs(w) < _KERNEL_TOL * scale)[0]
    if len(null) != 1:
        raise DegenerateSteadyState(
            f"Lindblad kernel dimension {len(null)} (eigenvalues {w[null]})"
        )
    rho = v[:, null[0]].reshape(D, D)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return rho


def stationary_decoder(model: SensorModel, theta: float, w0=None):
    """Constant decoder generators from the steady-state closed form.

    Exact in the large-t limit of ``build_decoder`` (no gauge motion at
    stationarity).  Requires a time-independent model with a unique
    full-rank steady state.
    """
    if model.time_dependent:
        raise DegenerateSteadyState("stationary synthesis needs a time-independent model")
    D = model.dim
    w0 = _check_unitary(w0, D)
    rho_ss = liouvillian_steady_state(model, theta)
    p = np.linalg.eigvalsh(rho_ss)
    if p.min() <= _MIN_POPULATION:
        raise RankDeficientSteadyState(
            f"steady-state population {p.min():.3e} at or below {_MIN_POPULATION}"
        )
    r = psd_sqrt(D * rho_ss) @ w0
    rt = r.T
    rti = robust_inv(rt)
    h = model.hamiltonian(0.0, theta)
    j = model.jump(0.0, theta)
    m = rt @ (h.conj() - 0.5j * (j.T @ j.conj())) @ rti
    hd_mat = -0.5 * (m + m.conj().T)
    jd_mat = -rt @ j.T @ rti

    return DecoderModel(
        hd=hd_mat[None], jd=jd_mat[None],
        initial_state_d=w0.conj().T @ model.initial_state,
        purified_joint=r.ravel() / np.linalg.norm(r.ravel()),
    )


def two_level_decoder(omega, delta_d, gamma):
    """Two-level decoder with explicit drive parameters, basis {e, g}.

    H_D = -delta_d |e><e| + (omega/2)(|e><g| + |g><e|),
    J_D = sqrt(gamma) |g><e|.

    The detuning convention matches the two-level sensor model, so a
    decoder matched to a sensor at detuning Delta has delta_d = -Delta.
    This is the natural laboratory pair: identical hardware with the
    detuning sign flipped.  It is gauge-equivalent to (not entrywise
    equal to) the constant-gauge output of ``stationary_decoder``.
    """
    hd = np.array([[-delta_d, 0.5 * omega], [0.5 * omega, 0.0]], dtype=complex)
    jd = np.array([[0.0, 0.0], [np.sqrt(gamma), 0.0]], dtype=complex)
    return DecoderModel(hd=hd[None], jd=jd[None],
                        initial_state_d=np.array([0.0, 1.0], dtype=complex))


def verify_decoding(sensor: SensorModel, dec: DecoderModel, theta: float,
                    grid: TimeGrid):
    """Probability of the all-zeros record for the cascaded pair.

    A correct decoder keeps its output field dark: P_vac = 1 - O(dt)
    under the purified joint initialization.  Returns P_vac at t_end.
    """
    from .cascade import vacuum_probability

    gen = cascade_generators(sensor, dec)
    return vacuum_probability(gen, theta, grid)
