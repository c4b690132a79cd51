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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CmsenseError, StepSelectionFailed
from .linalg import nuclear_norm, nuclear_norm_eig
from .models import SensorModel
from .propagate import TimeGrid, evolve_generalized, pair_table

__all__ = [
    "QfiResult",
    "env_fidelity",
    "global_fidelity",
    "env_qfi",
    "global_qfi",
]

# finite-difference step selection: accept delta when the worse of the
# two infidelities lands in this window
_WINDOW_LO = 1e-6
_WINDOW_HI = 1e-2
_DELTA_MIN = 1e-6
_DELTA_MAX = 1e-1

_CROSSCHECK_TOL = 1e-10


@dataclass
class QfiResult:
    value: float
    fd_step: float
    fidelity_samples: list = field(default_factory=list)
    method: str = "central_3pt"
    raw_second_difference: float = 0.0


class _FidelityEngine:
    """Caches Kraus tables and diagonal traces across a QFI call."""

    def __init__(self, model, T, dt, max_step, kind):
        self.model = model
        self.grid = TimeGrid(0.0, T, dt)
        self.max_step = max_step
        self.kind = kind
        self._tables = {}
        self._norms = {}

    def _table(self, theta):
        if theta not in self._tables:
            self._tables[theta] = pair_table(self.model, theta, self.grid, self.max_step)
        return self._tables[theta]

    def _mu(self, t1, t2):
        return evolve_generalized(self.model, t1, t2, self.grid, self.max_step,
                                  tables=(self._table(t1), self._table(t2)))

    def _norm(self, theta):
        if theta not in self._norms:
            self._norms[theta] = float(np.trace(self._mu(theta, theta)).real)
        return self._norms[theta]

    def fidelity(self, t1, t2):
        mu = self._mu(t1, t2)
        if self.kind == "env":
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
                 dt: float = 1e-3, max_step: float = 0.05):
    """Fidelity of the emitted-field states at theta1 and theta2.

    Computed as the nuclear norm of mu_{theta1,theta2}(T), divided by
    the geometric mean of the diagonal traces (unit-trace convention).
    Symmetric in its parameter arguments.
    """
    return _FidelityEngine(model, T, dt, max_step, "env").fidelity(theta1, theta2)


def global_fidelity(model: SensorModel, theta1: float, theta2: float, T: float,
                    dt: float = 1e-3, max_step: float = 0.05):
    """|tr mu|, the overlap of the joint system+field states; <= env_fidelity."""
    return _FidelityEngine(model, T, dt, max_step, "global").fidelity(theta1, theta2)


def _qfi(model, theta, T, dt, delta, method, max_step, kind):
    eng = _FidelityEngine(model, T, dt, max_step, kind)
    samples = []

    def infidelity(d):
        fp = eng.fidelity(theta, theta + d)
        fm = eng.fidelity(theta, theta - d)
        samples.append((d, fp))
        samples.append((-d, fm))
        return fp, fm, max(1.0 - fp, 1.0 - fm)

    d = float(delta)
    lo, hi = _DELTA_MIN, _DELTA_MAX
    d = min(max(d, lo), hi)
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

    def second_diff(dd, fpp, fmm):
        return 4.0 * (2.0 - fpp - fmm) / dd**2

    raw = second_diff(d, fp, fm)
    if method == "richardson":
        fp2, fm2, _ = infidelity(d / 2.0)
        raw = (4.0 * second_diff(d / 2.0, fp2, fm2) - raw) / 3.0
    value = max(raw, 0.0)
    return QfiResult(
        value=value,
        fd_step=d,
        fidelity_samples=samples,
        method=method,
        raw_second_difference=raw,
    )


def env_qfi(model: SensorModel, theta: float, T: float, dt: float = 1e-3,
            delta: float = 1e-3, method: str = "central_3pt",
            max_step: float = 0.05):
    """QFI of the emission field via symmetric second difference.

    value = 4 [2 - F(theta, theta+d) - F(theta, theta-d)] / d^2

    using F(theta, theta) = 1 (exact under the unit-trace convention).
    The step d starts at ``delta`` and is auto-adjusted by geometric
    bisection until the infidelity lands in [1e-6, 1e-2]; failure to
    find such a step raises StepSelectionFailed.  method="richardson"
    combines d and d/2 to cancel the leading O(d^2) bias.
    """
    return _qfi(model, theta, T, dt, delta, method, max_step, "env")


def global_qfi(model: SensorModel, theta: float, T: float, dt: float = 1e-3,
               delta: float = 1e-3, method: str = "central_3pt",
               max_step: float = 0.05):
    """QFI of the joint system+field state; upper-bounds env_qfi."""
    return _qfi(model, theta, T, dt, delta, method, max_step, "global")
