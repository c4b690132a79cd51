import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmsense.linalg import (dagger, frobenius_sq, nuclear_norm, nuclear_norm_eig, psd_sqrt,
                            robust_inv)
from cmsense.errors import RankDeficientRho


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_dagger_is_conjugate_transpose(rng):
    a = random_complex(rng, 3, 5)
    assert np.array_equal(dagger(a), a.conj().T)


def test_frobenius_sq_of_a_broadcast_stack_reads_one_matrix(rng, monkeypatch):
    # a stride-0 stack (a static jump's) is one matrix: its norm is taken
    # once and broadcast, with the bits of the norms of a contiguous copy
    a = random_complex(rng, 3)
    stack = np.broadcast_to(a, (1000, 3, 3))
    ref = frobenius_sq(np.ascontiguousarray(stack))
    assert np.allclose(ref, np.linalg.norm(a) ** 2, rtol=1e-15, atol=0.0)
    seen, contiguous = [], np.ascontiguousarray
    monkeypatch.setattr(np, "ascontiguousarray", lambda x: seen.append(x.shape) or contiguous(x))
    sq = frobenius_sq(stack)
    assert seen == [(1, 3, 3)]
    assert sq.shape == (1000,) and sq.strides == (0,)
    assert contiguous(sq).tobytes() == ref.tobytes()
    assert frobenius_sq(stack[:0]).shape == (0,)


def test_psd_sqrt_squares_back(rng):
    a = random_complex(rng, 5)
    m = a @ dagger(a)
    r = psd_sqrt(m)
    assert np.abs(r @ r - m).max() < 1e-10
    assert np.abs(r - dagger(r)).max() <= 1e-10


def test_psd_sqrt_clips_small_negative_noise():
    m = np.diag([1.0, -1e-14, 0.5]).astype(complex)
    r = psd_sqrt(m)
    assert np.all(np.linalg.eigvalsh(r) >= 0.0)


def test_nuclear_norm_routes_agree(rng):
    # svd route vs eigenvalue route on a generic square matrix
    a = random_complex(rng, 6)
    assert abs(nuclear_norm(a) - nuclear_norm_eig(a)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10000))
def test_nuclear_norm_routes_agree_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v1, v2 = nuclear_norm(a), nuclear_norm_eig(a)
    assert abs(v1 - v2) <= 1e-10 * max(1.0, v1)


def test_nuclear_norm_of_psd_equals_trace(rng):
    a = random_complex(rng, 4)
    m = a @ dagger(a)
    assert abs(nuclear_norm(m) - np.trace(m).real) < 1e-10


def test_robust_inv_inverts(rng):
    a = random_complex(rng, 4) + 3.0 * np.eye(4)
    assert np.abs(robust_inv(a) @ a - np.eye(4)).max() < 1e-10


def test_robust_inv_rejects_singular():
    m = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(RankDeficientRho):
        robust_inv(m)
