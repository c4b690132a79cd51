"""Fidelity and Fisher-information measures of the emission field.

Two sensitivity measures are computed from the generalized density
operator mu_{theta1,theta2}(T) = tr_E |Psi(theta1)><Psi(theta2)|:

* environment fidelity  F_E = tr_S sqrt(mu mu^dag)  (nuclear norm of mu),
  whose curvature in the parameter gives the QFI of the emitted field
  alone, I_E;
* global fidelity  F_G = |tr_S mu|, giving the QFI of the joint
  system+field state, I_G >= I_E.

Fidelities are defined on unit-trace states.  The discrete Kraus pair
is complete only to O(dt^2), so raw traces carry a common O(T dt)
defect; dividing by sqrt(tr mu_{11} tr mu_{22}) removes it exactly and
is what makes the finite-difference curvature meaningful at practical
grids.

``qfi_pair`` computes I_E and I_G from one engine: both kinds read the
same mu(theta1, theta2), so a generalized state that both step searches
need is propagated once, on the decoder-free cascade's ``step_matrices``.
The states of one finite-difference step that the engine lacks are
propagated together, as one stack in one walk over the grid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CmsenseError, StepSelectionFailed
from .linalg import nuclear_norm, nuclear_norm_eig
from .models import SensorModel
from .propagate import (STEP_GUARD, TimeGrid, cascade_generators, propagate_linear,
                        step_matrices, transfer)

__all__ = [
    "QfiResult",
    "env_fidelity",
    "global_fidelity",
    "env_qfi",
    "global_qfi",
    "qfi_pair",
]

# finite-difference step selection: start at _DELTA_START and accept the
# step when the worse of the two infidelities lands in this window
_DELTA_START = 1e-3
_WINDOW_LO = 1e-6
_WINDOW_HI = 1e-2
_DELTA_MIN = 1e-6
_DELTA_MAX = 1e-1

_CROSSCHECK_TOL = 1e-10


@dataclass
class QfiResult:
    """A QFI estimate; ``propagations`` counts the generalized-state
    propagations of the engine that computed it and ``walks`` the walks
    over the grid that ran them (both shared with the other result of a
    ``qfi_pair``)."""

    value: float
    fd_step: float
    fidelity_samples: list = field(default_factory=list)
    propagations: int = 0
    walks: int = 0


class _FidelityEngine:
    """Caches Kraus tables (``step_matrices``) and generalized states
    mu(theta1, theta2) by their parameter pair, so that both fidelity kinds
    share them; the states that a fidelity or a finite-difference step
    needs and the cache lacks are propagated in one walk (``walk``)."""

    def __init__(self, model, T, dt, max_step=STEP_GUARD):
        self.model = model
        self.gen = cascade_generators(model)
        self.grid = TimeGrid(0.0, T, dt)
        self.max_step = max_step
        self._tables = {}
        self._mus = {}
        self.walks = 0

    def _table(self, theta):
        if theta not in self._tables:
            self._tables[theta] = step_matrices(self.gen, theta, self.grid, self.max_step)
        return self._tables[theta]

    @property
    def propagations(self):
        return len(self._mus)

    def walk(self, pairs):
        """Propagate the generalized states of the parameter pairs ``pairs``
        that are not held yet, as one stack in one walk over the grid."""
        new = [p for p in dict.fromkeys(pairs) if p not in self._mus]
        if not new:
            return
        mu0 = np.outer(self.model.initial_state, self.model.initial_state.conj())
        mus = propagate_linear(transfer([self._table(a) for a, _ in new],
                                        [self._table(b) for _, b in new]),
                               np.tile(mu0.ravel(), (len(new), 1)), self.grid.n_steps)
        self._mus.update(zip(new, mus.reshape((-1,) + mu0.shape)))
        self.walks += 1

    def _norm(self, theta):
        return float(np.trace(self._mus[theta, theta]).real)

    def fidelity(self, t1, t2, kind):
        """Unit-trace fidelity of ``kind`` "env" (nuclear norm of mu) or
        "global" (|tr mu|)."""
        self.walk([(t1, t2), (t1, t1), (t2, t2)])
        mu = self._mus[t1, t2]
        if kind == "env":
            val = nuclear_norm(mu)
            alt = nuclear_norm_eig(mu)
            if abs(val - alt) > _CROSSCHECK_TOL * max(1.0, abs(val)):
                raise CmsenseError(
                    f"nuclear-norm routes disagree: svd={val!r} eig={alt!r}"
                )
        else:
            val = abs(np.trace(mu))
        return val / math.sqrt(self._norm(t1) * self._norm(t2))


def env_fidelity(model: SensorModel, theta1: float, theta2: float, T: float,
                 dt: float = 1e-3, max_step: float = STEP_GUARD):
    """Fidelity of the emitted-field states at theta1 and theta2.

    Computed as the nuclear norm of mu_{theta1,theta2}(T), divided by
    the geometric mean of the diagonal traces (unit-trace convention).
    Symmetric in its parameter arguments.
    """
    return _FidelityEngine(model, T, dt, max_step).fidelity(theta1, theta2, "env")


def global_fidelity(model: SensorModel, theta1: float, theta2: float, T: float,
                    dt: float = 1e-3):
    """|tr mu|, the overlap of the joint system+field states; <= env_fidelity."""
    return _FidelityEngine(model, T, dt).fidelity(theta1, theta2, "global")


def _qfi(eng, theta, kind):
    samples = []

    def infidelity(d):
        # every state of the step in one walk: mu(θ, θ), mu(θ, θ ± d), mu(θ ± d, θ ± d)
        eng.walk([(theta, theta), (theta, theta + d), (theta, theta - d),
                  (theta + d, theta + d), (theta - d, theta - d)])
        fp = eng.fidelity(theta, theta + d, kind)
        fm = eng.fidelity(theta, theta - d, kind)
        samples.append((d, fp))
        samples.append((-d, fm))
        return fp, fm, max(1.0 - fp, 1.0 - fm)

    d, lo, hi = _DELTA_START, _DELTA_MIN, _DELTA_MAX
    fp, fm, w = infidelity(d)
    it = 0
    while not (_WINDOW_LO <= w <= _WINDOW_HI):
        # too much curvature -> shrink; too little -> grow; geometric bisection
        if w > _WINDOW_HI:
            hi = d
        else:
            lo = d
        if hi / lo < 1.0 + 1e-3:
            raise StepSelectionFailed(
                f"no step in [{_DELTA_MIN}, {_DELTA_MAX}] puts the infidelity "
                f"in [{_WINDOW_LO}, {_WINDOW_HI}] (last delta={d:.3g}, 1-F={w:.3g})"
            )
        d = math.sqrt(lo * hi)
        fp, fm, w = infidelity(d)
        it += 1
        if it > 60:
            raise StepSelectionFailed("step bisection failed to converge")

    return QfiResult(
        value=max(4.0 * (2.0 - fp - fm) / d**2, 0.0),
        fd_step=d,
        fidelity_samples=samples,
        propagations=eng.propagations,
        walks=eng.walks,
    )


def env_qfi(model: SensorModel, theta: float, T: float, dt: float = 1e-3):
    """QFI of the emission field via symmetric second difference.

    value = 4 [2 - F(theta, theta+d) - F(theta, theta-d)] / d^2

    using F(theta, theta) = 1 (exact under the unit-trace convention).
    The step d starts at 1e-3 and is auto-adjusted by geometric
    bisection until the infidelity lands in [1e-6, 1e-2]; failure to
    find such a step raises StepSelectionFailed.  The value carries the
    O(d^2) bias of the second difference.
    """
    return _qfi(_FidelityEngine(model, T, dt), theta, "env")


def global_qfi(model: SensorModel, theta: float, T: float, dt: float = 1e-3):
    """QFI of the joint system+field state; upper-bounds env_qfi."""
    return _qfi(_FidelityEngine(model, T, dt), theta, "global")


def qfi_pair(model: SensorModel, theta: float, T: float, dt: float = 1e-3):
    """(env_qfi, global_qfi) results from one fidelity engine: equal to
    the two separate calls, with each shared generalized state
    propagated once."""
    eng = _FidelityEngine(model, T, dt)
    env = _qfi(eng, theta, "env")
    glob = _qfi(eng, theta, "global")
    env.propagations, env.walks = glob.propagations, glob.walks
    return env, glob
