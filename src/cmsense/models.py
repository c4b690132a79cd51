"""Parameterized emitter models and drive-pulse envelopes.

Conventions used throughout the package:

* natural units with the emission rate Gamma as frequency unit and
  1/Gamma as time unit;
* basis ordering {e, g} for two-level systems and {e, g, r} for
  three-level systems (excited state first);
* theta is the scalar parameter under estimation.  The ``hamiltonian``
  and ``jump`` maps of a model take (t, theta) and evaluate the
  operators at the *supplied* theta, so a single model object serves
  the whole finite-difference and likelihood machinery.  For both
  presets theta is the drive detuning Delta.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    GaussianTooWide,
    NonpositiveRate,
    PulseShapeMismatch,
)

__all__ = [
    "SensorModel",
    "two_level_model",
    "three_level_model",
    "plateau_envelope",
    "gaussian_pi_envelope",
    "two_level_steady_state",
]


@dataclass(eq=False)
class SensorModel:
    """A driven-dissipative emitter with one monitored decay channel.

    :param dim: Hilbert-space dimension D.
    :param hamiltonian: map (t, theta) -> D x D Hermitian ndarray.
    :param jump: map (t, theta) -> D x D ndarray (monitored channel).
    :param initial_state: normalized D-component state vector.
    :param theta_ref: the value a preset builds the model at (the config's
        ``model.delta``); a label that no computation reads.
    :param time_dependent: False when hamiltonian/jump ignore t, which
        lets propagators reuse a single Kraus pair for the whole grid.
    :param stacks: optional map (ts, theta) -> (H, J), two (len(ts), D, D)
        stacks of the operators at the times ts, for a time-dependent
        model that evaluates them a whole grid at a time.
    """

    dim: int
    hamiltonian: Callable[[float, float], np.ndarray]
    jump: Callable[[float, float], np.ndarray]
    initial_state: np.ndarray
    theta_ref: float = 0.0
    time_dependent: bool = True
    stacks: Optional[Callable[[np.ndarray, float], Tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        psi = np.asarray(self.initial_state, dtype=complex)
        n = np.linalg.norm(psi)
        if abs(n - 1.0) > 1e-12:
            psi = psi / n
        self.initial_state = psi


def plateau_envelope(t, omega1, tau, T):
    """Smooth plateau window on [0, T] with ramp time tau.

    value = Omega1 * (e^{-t/tau} + e^{(t-T)/tau} + e^{-T/tau} - 1)
            / (1 + e^{-T/tau})

    so the window rises from ~0 at t=0, sits near -Omega1 in the
    interior (T >> tau) and returns to ~0 at t=T.  Zero outside [0,T].
    """
    if tau <= 0 or T <= 0:
        raise PulseShapeMismatch("plateau needs tau > 0 and T > 0")
    t = np.asarray(t, dtype=float)
    edge = np.exp(-T / tau)
    val = omega1 * (np.exp(-t / tau) + np.exp((t - T) / tau) + edge - 1.0) / (1.0 + edge)
    val = np.where((t >= 0.0) & (t <= T), val, 0.0)
    if val.ndim == 0:
        return float(val)
    return val


def gaussian_pi_envelope(t, t_c, sigma, sign=1):
    """Gaussian with unit-pi time-integrated area: amp = pi/(sigma*sqrt(2 pi))."""
    if sigma <= 0:
        raise GaussianTooWide("sigma must be positive")
    amp = np.pi / (sigma * np.sqrt(2.0 * np.pi))
    t = np.asarray(t, dtype=float)
    val = sign * amp * np.exp(-0.5 * ((t - t_c) / sigma) ** 2)
    if val.ndim == 0:
        return float(val)
    return val


def _sigma(i, j, dim):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def _per_bin(fn, ts, dim, static):
    """(len(ts), dim, dim) stack of fn(t) at the times ts; a static fn is
    evaluated once and broadcast (a read-only view)."""
    if static:
        return np.broadcast_to(fn(ts[0] if len(ts) else 0.0), (len(ts), dim, dim))
    out = np.empty((len(ts), dim, dim), dtype=complex)
    for k, t in enumerate(ts):
        out[k] = fn(float(t))
    return out


def operator_stacks(model: SensorModel, theta, ts):
    """Per-bin (H, J) stacks of ``model`` at the times ``ts``: the model's
    own ``stacks`` when it is time dependent and has them, one evaluation
    broadcast for a static model, else bin by bin."""
    if model.time_dependent and model.stacks is not None:
        return model.stacks(ts, theta)
    return tuple(_per_bin(lambda t: op(t, theta), ts, model.dim, not model.time_dependent)
                 for op in (model.hamiltonian, model.jump))


def two_level_model(omega, delta, gamma):
    """Resonantly driven two-level emitter, basis {e, g}.

    H(theta) = -theta |e><e| + (omega/2)(|e><g| + |g><e|)
    J = sqrt(gamma) |g><e|

    theta is bound to the detuning; ``delta`` only sets theta_ref.
    """
    if gamma <= 0:
        raise NonpositiveRate(f"gamma must be positive, got {gamma}")
    see = _sigma(0, 0, 2)
    sx = _sigma(0, 1, 2) + _sigma(1, 0, 2)
    jop = np.sqrt(gamma) * _sigma(1, 0, 2)

    def ham(t, theta):
        return -theta * see + 0.5 * omega * sx

    def jump(t, theta):
        return jop

    return SensorModel(
        dim=2,
        hamiltonian=ham,
        jump=jump,
        initial_state=np.array([0.0, 1.0], dtype=complex),
        theta_ref=delta,
        time_dependent=False,
    )


def three_level_model(delta, omega, gamma, T_plateau):
    """Three-level emitter (basis {e, g, r}) with time-dependent drives.

    H(t, theta) = theta |e><e|
                  + (1/2)[p1(t) |e><g| + p2(t) |e><r| + h.c.]
    J = sqrt(gamma) |g><e|
    initial state (|g> - |r>)/sqrt(2).

    The g->e drive p1 is the plateau window of length T_plateau with
    ramp time 2/gamma and amplitude omega; the r->e drive p2 is the pi
    pulse of width 0.05/gamma centred 1/gamma after the window closes.
    The operators are written once, as the ``stacks`` of a grid; the
    scalar ``hamiltonian`` and ``jump`` are their one-bin stacks.  theta
    is bound to the detuning; ``delta`` only sets theta_ref.
    """
    if gamma <= 0:
        raise NonpositiveRate(f"gamma must be positive, got {gamma}")
    jop = np.sqrt(gamma) * _sigma(1, 0, 3)

    def stacks(ts, theta):
        o1 = plateau_envelope(ts, omega, 2.0 / gamma, T_plateau)
        o2 = gaussian_pi_envelope(ts, T_plateau + 1.0 / gamma, 0.05 / gamma)
        hs = np.zeros((len(ts), 3, 3), dtype=complex)
        hs[:, 0, 0] = theta
        hs[:, 0, 1] = 0.5 * o1
        hs[:, 1, 0] = 0.5 * o1
        hs[:, 0, 2] = 0.5 * o2
        hs[:, 2, 0] = 0.5 * o2
        return hs, np.broadcast_to(jop, hs.shape)

    return SensorModel(
        dim=3,
        hamiltonian=lambda t, theta: stacks([t], theta)[0][0],
        jump=lambda t, theta: stacks([t], theta)[1][0],
        initial_state=np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0),
        theta_ref=delta,
        time_dependent=True,
        stacks=stacks,
    )


def two_level_steady_state(omega, delta, gamma):
    """Closed-form steady state of the driven two-level emitter.

    rho_ss = [s|e><e| + (s+2)|g><g| + sqrt(2s)(e^{-i phi}|e><g| + h.c.)]
             / [2(1+s)]

    with saturation parameter s = 2 omega^2/(4 delta^2 + gamma^2) and
    phi = arctan(gamma / (2 delta)).  The phase sign matches the unique
    kernel of the Lindblad generator for H = -delta|e><e| + (omega/2) sx,
    J = sqrt(gamma)|g><e|.
    """
    s = 2.0 * omega**2 / (4.0 * delta**2 + gamma**2)
    phi = np.arctan2(gamma, 2.0 * delta)
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = s
    rho[1, 1] = s + 2.0
    rho[0, 1] = np.sqrt(2.0 * s) * np.exp(-1j * phi)
    rho[1, 0] = np.conj(rho[0, 1])
    return rho / (2.0 * (1.0 + s))
