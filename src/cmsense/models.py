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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    GaussianTooWide,
    NonpositiveRate,
    PulseShapeMismatch,
)

__all__ = [
    "SensorModel",
    "PulseEnvelope",
    "two_level_model",
    "three_level_model",
    "plateau_envelope",
    "gaussian_pi_envelope",
    "default_pulses",
    "two_level_steady_state",
]


@dataclass(eq=False)
class SensorModel:
    """A driven-dissipative emitter with one monitored decay channel.

    :param dim: Hilbert-space dimension D.
    :param hamiltonian: map (t, theta) -> D x D Hermitian ndarray.
    :param jump: map (t, theta) -> D x D ndarray (monitored channel).
    :param initial_state: normalized D-component state vector.
    :param theta_name: label of the estimated parameter.
    :param theta_ref: nominal parameter value used by presets.
    :param time_dependent: False when hamiltonian/jump ignore t, which
        lets propagators reuse a single Kraus pair for the whole grid.
    """

    dim: int
    hamiltonian: Callable[[float, float], np.ndarray]
    jump: Callable[[float, float], np.ndarray]
    initial_state: np.ndarray
    theta_name: str = "Delta"
    theta_ref: float = 0.0
    time_dependent: bool = True

    def __post_init__(self):
        psi = np.asarray(self.initial_state, dtype=complex)
        n = np.linalg.norm(psi)
        if abs(n - 1.0) > 1e-12:
            psi = psi / n
        self.initial_state = psi


@dataclass(frozen=True)
class PulseEnvelope:
    """Drive-pulse envelope description.

    kind "plateau": smooth turn-on/turn-off window of length T with
    ramp time tau and interior amplitude -amplitude (the literal
    evaluation of the window formula carries a minus sign inside;
    physics is invariant under this phase together with a frame
    choice).

    kind "gaussian_pi": Gaussian pulse centered at t_c of width sigma
    whose time-integrated Rabi area is exactly pi; the amplitude
    field is derived from sigma, not free.
    """

    kind: str
    amplitude: float = 0.0
    tau: float = 0.0
    T: float = 0.0
    t_c: float = 0.0
    sigma: float = 0.0
    sign: int = 1

    def __call__(self, t):
        if self.kind == "plateau":
            return plateau_envelope(t, self.amplitude, self.tau, self.T)
        if self.kind == "gaussian_pi":
            return gaussian_pi_envelope(t, self.t_c, self.sigma, self.sign)
        raise PulseShapeMismatch(f"unknown envelope kind {self.kind!r}")


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
    """Per-bin (H, J) stacks of ``model`` at the times ``ts``.

    H comes from the model's ``hamiltonian_batch`` hook when it has one
    (such models have a time-independent jump), is evaluated once and
    broadcast for a static model, and is otherwise evaluated bin by bin.
    """
    batch = getattr(model, "hamiltonian_batch", None) if model.time_dependent else None
    static_j = batch is not None or not model.time_dependent
    j = _per_bin(lambda t: model.jump(t, theta), ts, model.dim, static_j)
    if batch is not None:
        return batch(ts, theta), j
    return _per_bin(lambda t: model.hamiltonian(t, theta), ts, model.dim,
                    not model.time_dependent), j


def two_level_model(omega, delta, gamma):
    """Resonantly driven two-level emitter, basis {e, g}.

    H(theta) = -theta |e><e| + (omega/2)(|e><g| + |g><e|)
    J = sqrt(gamma) |g><e|

    theta is bound to the detuning; ``delta`` sets theta_ref.
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
        theta_name="Delta",
        theta_ref=delta,
        time_dependent=False,
    )


def default_pulses(omega, T_plateau, gamma=1.0, sigma=None):
    """Default pulse pair for the three-level protocol.

    Ramp time tau = 2/gamma and pi-pulse center t_c = T_plateau +
    1/gamma; pi-pulse width sigma = 0.05/gamma unless given.  All values
    in 1/gamma units with gamma the emission rate.
    """
    sigma = 0.05 / gamma if sigma is None else sigma
    p1 = PulseEnvelope(kind="plateau", amplitude=omega, tau=2.0 / gamma, T=T_plateau)
    p2 = PulseEnvelope(kind="gaussian_pi", t_c=T_plateau + 1.0 / gamma, sigma=sigma)
    return p1, p2


def three_level_model(delta, omega, gamma, p1=None, p2=None, T_plateau=None):
    """Three-level emitter (basis {e, g, r}) with time-dependent drives.

    H(t, theta) = theta |e><e|
                  + (1/2)[p1(t) |e><g| + p2(t) |e><r| + h.c.]
    J = sqrt(gamma) |g><e|
    initial state (|g> - |r>)/sqrt(2).

    The g->e drive is the plateau window p1, the r->e drive the
    short pi pulse p2 applied after the window closes.  Provide
    either both envelopes or T_plateau (then defaults are built with
    ``default_pulses``).
    """
    if gamma <= 0:
        raise NonpositiveRate(f"gamma must be positive, got {gamma}")
    if p1 is None or p2 is None:
        if T_plateau is None:
            raise PulseShapeMismatch("need either (p1, p2) or T_plateau")
        dp1, dp2 = default_pulses(omega, T_plateau, gamma)
        p1 = dp1 if p1 is None else p1
        p2 = dp2 if p2 is None else p2
    if p1.kind != "plateau":
        raise PulseShapeMismatch(f"p1 must be a plateau envelope, got {p1.kind!r}")
    if p2.kind != "gaussian_pi":
        raise PulseShapeMismatch(f"p2 must be a gaussian_pi envelope, got {p2.kind!r}")
    if p2.sigma > 0.2 / gamma:
        raise GaussianTooWide(
            f"pi-pulse sigma {p2.sigma} exceeds 0.2/gamma = {0.2 / gamma}"
        )

    see = _sigma(0, 0, 3)
    seg = _sigma(0, 1, 3)
    sge = _sigma(1, 0, 3)
    ser = _sigma(0, 2, 3)
    sre = _sigma(2, 0, 3)
    jop = np.sqrt(gamma) * sge

    def ham(t, theta):
        o1 = p1(t)
        o2 = p2(t)
        return theta * see + 0.5 * (o1 * (seg + sge) + o2 * (ser + sre))

    def jump(t, theta):
        return jop

    def ham_batch(ts, theta):
        # vectorized assembly over a whole grid of left endpoints
        ts = np.asarray(ts, dtype=float)
        o1 = np.asarray(plateau_envelope(ts, p1.amplitude, p1.tau, p1.T))
        o2 = np.asarray(gaussian_pi_envelope(ts, p2.t_c, p2.sigma, p2.sign))
        hs = np.zeros((len(ts), 3, 3), dtype=complex)
        hs[:, 0, 0] = theta
        hs[:, 0, 1] = 0.5 * o1
        hs[:, 1, 0] = 0.5 * o1
        hs[:, 0, 2] = 0.5 * o2
        hs[:, 2, 0] = 0.5 * o2
        return hs

    model = SensorModel(
        dim=3,
        hamiltonian=ham,
        jump=jump,
        initial_state=np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0),
        theta_name="Delta",
        theta_ref=delta,
        time_dependent=True,
    )
    model.hamiltonian_batch = ham_batch
    return model


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
