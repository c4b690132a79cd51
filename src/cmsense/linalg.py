"""Small dense linear-algebra helpers used throughout the package.

Everything here operates on small matrices (dimension <= a few thousand
for the brute-force checks, <= 16 in the main loops), so we prefer
eigendecompositions over iterative methods and accuracy over speed.
"""

import numpy as np

from .errors import DimensionMismatch, RankDeficientRho

__all__ = [
    "psd_sqrt",
    "nuclear_norm",
    "nuclear_norm_eig",
    "robust_inv",
    "dagger",
    "frobenius_sq",
]

_CLIP_TOL = 1e-10
_REL_TOL = 1e-10


def dagger(m):
    """Conjugate transpose (of each matrix of a stack)."""
    return np.conj(np.swapaxes(m, -1, -2))


def frobenius_sq(stack):
    """Squared Frobenius norm of each matrix of a complex stack, summed
    over a float view: no temporary the size of the stack."""
    v = np.ascontiguousarray(stack).reshape(len(stack), -1).view(np.float64)
    return np.einsum("ki,ki->k", v, v)


def psd_sqrt(m):
    """Principal square root of a positive semidefinite matrix.

    Uses a Hermitian eigendecomposition and clips small negative
    eigenvalues (round-off) to zero.  Eigenvalues below
    ``-_CLIP_TOL * trace`` indicate the input was not actually PSD and
    raise ``RankDeficientRho``.

    :param m: Hermitian PSD matrix.
    :returns: Hermitian PSD square root, same shape as ``m``.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {m.shape}")
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    floor = -_CLIP_TOL * max(abs(np.sum(w)), 1.0)
    if np.any(w < floor):
        raise RankDeficientRho(
            f"matrix has eigenvalue {w.min():.3e} below PSD floor {floor:.3e}"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def nuclear_norm(m):
    """Trace norm (sum of singular values) via SVD."""
    return float(np.sum(np.linalg.svd(np.asarray(m), compute_uv=False)))


def nuclear_norm_eig(m):
    """Trace norm via the Hermitian eigenvalues of m m^dag.

    Independent route used to cross-check :func:`nuclear_norm`; the two
    agree to near machine precision for the small matrices we feed them.
    """
    m = np.asarray(m)
    w = np.linalg.eigvalsh(m @ m.conj().T)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def robust_inv(m):
    """Inverse with a conditioning guard, for one matrix or a stack.

    Falls back to nothing: if the smallest singular value is below
    ``_REL_TOL`` times the largest the matrix is treated as rank
    deficient and ``RankDeficientRho`` is raised, since a silently
    regularised pseudo-inverse would corrupt the synthesis algebra.
    """
    m = np.asarray(m)
    s = np.linalg.svd(m, compute_uv=False)
    bad = np.flatnonzero(s[..., -1] <= _REL_TOL * s[..., 0])
    if len(bad):
        s = s.reshape(-1, s.shape[-1])[bad[0]]
        raise RankDeficientRho(
            f"condition number {s[0] / max(s[-1], 1e-300):.3e} exceeds guard"
        )
    return np.linalg.inv(m)
