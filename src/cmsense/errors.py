"""Shared exception types.

Every guard in the package raises one of these so callers can
distinguish physics-input problems from plain bugs.
"""


class CmsenseError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CmsenseError):
    """Operator shapes are inconsistent with the model dimension."""


class StepTooLarge(CmsenseError):
    """Time step too coarse for the first-order bin decomposition."""


class TraceDrift(CmsenseError):
    """Density-matrix trace wandered outside tolerance during propagation."""


class StepSelectionFailed(CmsenseError):
    """No finite-difference step found inside the trusted window."""


class RankDeficientRho(CmsenseError):
    """Auxiliary state lost rank; the synthesis inverse is undefined."""


class NonUnitaryGauge(CmsenseError):
    """Supplied gauge matrix W0 is not unitary."""


class DegenerateSteadyState(CmsenseError):
    """Lindblad generator has more than one steady state."""


class RankDeficientSteadyState(CmsenseError):
    """Steady state is not full rank; stationary synthesis undefined."""


class ClickProbabilityOverflow(CmsenseError):
    """Per-bin click probability exceeded the sampling guard."""


class RecordLengthMismatch(CmsenseError):
    """Counting record does not match the replay grid."""


class TooManyBins(CmsenseError):
    """Brute-force enumeration request exceeds the exponential-size cap."""


class GridTooNarrow(CmsenseError):
    """Likelihood maximum sits on the edge of the search grid."""


class NonpositiveRate(CmsenseError):
    """A rate parameter that must be positive is not."""


class PulseShapeMismatch(CmsenseError):
    """Pulse-envelope parameters are inconsistent with the time window."""


class GaussianTooWide(CmsenseError):
    """Gaussian pulse width too large for its time slot."""


class ConfigInvalid(CmsenseError):
    """Experiment configuration failed schema or physics validation."""


def format_excess(value, limit):
    """``value`` with the fewest significant digits (at least 3) that
    still read above ``limit``, so a guard never reports "0.05 exceeds 0.05"."""
    for digits in range(3, 18):
        text = f"{value:.{digits}g}"
        if float(text) > limit:
            return text
    return repr(value)
