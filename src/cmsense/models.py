"""Parameterized emitter models and drive-pulse envelopes.

Conventions used throughout the package:

* natural units with the emission rate Gamma as frequency unit and
  1/Gamma as time unit;
* basis ordering {e, g} for two-level systems and {e, g, r} for
  three-level systems (excited state first);
* theta is the scalar parameter under estimation.  It enters every
  model through one constant generator G, H(t, theta) = H0(t) + theta G,
  with a theta-free jump: a model declares its theta-free (H0, J) stacks
  and G once, ``operator_stacks`` evaluates them at any theta (or a theta
  set at once), and dH/dtheta = G exactly, which the record scores use.
  For both presets theta is the drive detuning Delta.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

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
    """A driven-dissipative emitter with one monitored decay channel,
    H(t, theta) = H0(t) + theta G and a theta-free jump J(t).

    :param dim: Hilbert-space dimension D.
    :param stacks: map ts -> (H0, J), two (len(ts), D, D) stacks of the
        theta-free operators at the times ts.  A static model may return
        read-only broadcasts; a jump that does not change in time stays a
        stride-0 broadcast of its one matrix.
    :param generator: the constant D x D Hermitian G = dH/dtheta.
    :param initial_state: normalized D-component state vector.
    :param theta_ref: the value a preset builds the model at (the config's
        ``model.delta``); a label that no computation reads.
    :param time_dependent: False when H0 and J do not change in time,
        which lets propagators reuse a single Kraus pair for the whole grid.
    """

    dim: int
    stacks: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    generator: np.ndarray
    initial_state: np.ndarray
    theta_ref: float = 0.0
    time_dependent: bool = True

    def __post_init__(self):
        psi = np.asarray(self.initial_state, dtype=complex)
        n = np.linalg.norm(psi)
        if abs(n - 1.0) > 1e-12:
            psi = psi / n
        self.initial_state = psi
        self.generator = np.asarray(self.generator, dtype=complex)

    def hamiltonian(self, t, theta):
        """H(t, theta), the one-bin stack of ``operator_stacks``."""
        return operator_stacks(self, theta, [t])[0][0]

    def jump(self, t, theta):
        """J(t) (theta-free), the one-bin stack of ``operator_stacks``."""
        return operator_stacks(self, theta, [t])[1][0]


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


def operator_stacks(model: SensorModel, theta, ts):
    """The (H, J) stacks of ``model`` at the times ``ts``: H = H0 + theta G
    for a scalar theta, (len(ts), D, D); for a 1-D theta array, the stacks
    of each theta one after another as the bins of one stack, (len(theta)
    len(ts), D, D), with G broadcast once over the set.  A jump that does
    not change in time stays a stride-0 broadcast of its one matrix."""
    h0, j = model.stacks(np.asarray(ts, dtype=float))
    theta = np.asarray(theta, dtype=float)
    h = h0 + theta.reshape(theta.shape + (1, 1, 1)) * model.generator
    shape = (-1,) + h.shape[-2:]
    return h.reshape(shape), np.broadcast_to(j, h.shape).reshape(shape)


def two_level_model(omega, delta, gamma):
    """Resonantly driven two-level emitter, basis {e, g}.

    H(theta) = (omega/2)(|e><g| + |g><e|) + theta G,  G = -|e><e|
    J = sqrt(gamma) |g><e|

    theta is bound to the detuning; ``delta`` only sets theta_ref.
    """
    if gamma <= 0:
        raise NonpositiveRate(f"gamma must be positive, got {gamma}")
    h0 = 0.5 * omega * (_sigma(0, 1, 2) + _sigma(1, 0, 2))
    jop = np.sqrt(gamma) * _sigma(1, 0, 2)

    def stacks(ts):
        return tuple(np.broadcast_to(op, (len(ts), 2, 2)) for op in (h0, jop))

    return SensorModel(
        dim=2,
        stacks=stacks,
        generator=np.diag([-1.0, 0.0]),
        initial_state=np.array([0.0, 1.0], dtype=complex),
        theta_ref=delta,
        time_dependent=False,
    )


def three_level_model(delta, omega, gamma, T_plateau):
    """Three-level emitter (basis {e, g, r}) with time-dependent drives.

    H(t, theta) = (1/2)[p1(t) |e><g| + p2(t) |e><r| + h.c.] + theta G,
    G = |e><e|
    J = sqrt(gamma) |g><e|
    initial state (|g> - |r>)/sqrt(2).

    The g->e drive p1 is the plateau window of length T_plateau with
    ramp time 2/gamma and amplitude omega; the r->e drive p2 is the pi
    pulse of width 0.05/gamma centred 1/gamma after the window closes.
    The theta-free operators are written once, as the ``stacks`` of a
    grid.  theta is bound to the detuning; ``delta`` only sets theta_ref.
    """
    if gamma <= 0:
        raise NonpositiveRate(f"gamma must be positive, got {gamma}")
    jop = np.sqrt(gamma) * _sigma(1, 0, 3)

    def stacks(ts):
        o1 = plateau_envelope(ts, omega, 2.0 / gamma, T_plateau)
        o2 = gaussian_pi_envelope(ts, T_plateau + 1.0 / gamma, 0.05 / gamma)
        hs = np.zeros((len(ts), 3, 3), dtype=complex)
        hs[:, 0, 1] = 0.5 * o1
        hs[:, 1, 0] = 0.5 * o1
        hs[:, 0, 2] = 0.5 * o2
        hs[:, 2, 0] = 0.5 * o2
        return hs, np.broadcast_to(jop, hs.shape)

    return SensorModel(
        dim=3,
        stacks=stacks,
        generator=np.diag([1.0, 0.0, 0.0]),
        initial_state=np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0),
        theta_ref=delta,
        time_dependent=True,
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
