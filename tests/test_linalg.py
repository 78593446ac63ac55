"""Linear algebra kernels checked against numpy as an independent oracle."""

import subprocess
import sys

import numpy as np
import pytest

from symcone import SingularMatrixError, mat_inverse, solve_linear, sym_eig
from symcone.linalg import _norm1


def test_solve_identity_returns_rhs():
    b = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(solve_linear(np.eye(3), b), b)


def test_solve_matches_numpy_on_random_systems():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5, 8, 12):
        for _ in range(20):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal(n)
            x = solve_linear(a, b)
            np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=1e-12)
            assert np.abs(a @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


def test_solve_requires_pivoting():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([2.0, 5.0])
    np.testing.assert_allclose(solve_linear(a, b), [5.0, 2.0])


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
    with pytest.raises(SingularMatrixError):
        mat_inverse(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))


def test_inverse_matches_numpy():
    rng = np.random.default_rng(2)
    for n in (2, 4, 7):
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        inv = mat_inverse(a)
        np.testing.assert_allclose(inv, np.linalg.inv(a), rtol=1e-9, atol=1e-12)
        assert np.abs(a @ inv - np.eye(n)).max() < 1e-10


def test_eig_diagonal_matrix():
    w, v = sym_eig(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, 2.0])
    assert np.abs(np.abs(v) - np.eye(2)[:, ::-1]).max() < 1e-12


def test_eig_exchange_matrix():
    # characteristic polynomial t^2 - 1 gives eigenvalues -1 and 1
    w, v = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(v @ np.diag(w) @ v.T, [[0, 1], [1, 0]], atol=1e-14)


def test_eig_matches_numpy_and_reconstructs():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 6, 10, 16):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            a = a + a.T
            w, v = sym_eig(a)
            np.testing.assert_allclose(w, np.sort(np.linalg.eigvalsh(a)),
                                       rtol=1e-10, atol=1e-10)
            scale = max(1.0, np.abs(a).max())
            assert np.abs(v @ np.diag(w) @ v.T - a).max() <= 1e-10 * scale
            assert np.abs(v.T @ v - np.eye(n)).max() < 1e-12
            # off-diagonal mass of the rotated matrix is at the requested floor
            d = v.T @ a @ v
            off = d - np.diag(np.diag(d))
            assert np.abs(off).max() <= 1e-11 * scale


def test_eig_rejects_asymmetric_and_nonsquare():
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        solve_linear(np.ones((2, 3)), np.ones(2))


def test_condition_guard_threshold():
    # 1-norm condition 1e13 is past COND_LIMIT = 1e12; 1e11 is within it
    near_singular = np.diag([1.0, 1e-13])
    with pytest.raises(SingularMatrixError):
        solve_linear(near_singular, np.ones(2))
    with pytest.raises(SingularMatrixError):
        mat_inverse(near_singular)
    ill = np.diag([1.0, 1e-11])
    np.testing.assert_allclose(solve_linear(ill, np.ones(2)), [1.0, 1e11])
    np.testing.assert_allclose(mat_inverse(ill), np.diag([1.0, 1e11]))


def test_nan_entries_raise_value_error():
    a = np.array([[1.0, np.nan], [np.nan, 1.0]])
    for call in (lambda: solve_linear(a, np.ones(2)), lambda: mat_inverse(a),
                 lambda: sym_eig(a)):
        with pytest.raises(ValueError):
            call()


def test_eig_one_by_one():
    w, v = sym_eig(np.array([[3.5]]))
    assert w.shape == (1,)
    assert w[0] == 3.5
    assert np.abs(v).tolist() == [[1.0]]


def test_eig_takes_no_tolerance():
    with pytest.raises(TypeError):
        sym_eig(np.eye(2), off_tol=1e-14)


def test_import_does_not_load_scipy():
    # numpy is the only declared dependency
    code = "import sys, symcone; print('scipy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       check=True)
    assert r.stdout.strip() == "False"


# ------------------------------------------------------------- matrix stacks

def test_one_norm_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 6, 12):
        stack = rng.standard_normal((5, n, n)) * rng.uniform(1e-3, 1e3, size=(5, 1, 1))
        norms = _norm1(stack)
        assert norms.shape == (5,)
        for a, norm in zip(stack, norms):
            assert _norm1(a) == np.linalg.norm(a, 1)
            assert norm == np.linalg.norm(a, 1)


def test_stacked_routines_match_each_matrix_alone():
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        a = rng.standard_normal((4, n, n)) + n * np.eye(n)
        b = rng.standard_normal((4, n))
        s = a + a.mT
        x, inv, (w, v) = solve_linear(a, b), mat_inverse(a), sym_eig(s)
        for i in range(4):
            assert np.array_equal(x[i], solve_linear(a[i], b[i]))
            assert np.array_equal(inv[i], mat_inverse(a[i]))
            wi, vi = sym_eig(s[i])
            assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)


def test_stack_with_one_singular_matrix_raises():
    good = np.eye(2) + 0.1
    for bad in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 1e-13])):
        stack = np.stack([good, bad])
        with pytest.raises(SingularMatrixError):
            solve_linear(stack, np.ones((2, 2)))
        with pytest.raises(SingularMatrixError):
            mat_inverse(stack)


def test_condition_guard_is_per_matrix():
    # each matrix has condition 1; the stack's pooled entries span 1e14
    stack = np.stack([1e7 * np.eye(3), 1e-7 * np.eye(3)])
    np.testing.assert_allclose(mat_inverse(stack), np.stack([1e-7 * np.eye(3), 1e7 * np.eye(3)]))
    np.testing.assert_allclose(solve_linear(stack, np.ones((2, 3))),
                               [[1e-7] * 3, [1e7] * 3])


def test_symmetry_guard_uses_each_matrix_scale():
    big = 1e6 * np.array([[2.0, 1.0], [1.0, 3.0]])
    small = np.array([[1.0, 1e-9], [0.0, 1.0]])  # asymmetric at 1e-9 of scale 1
    sym_eig(big)
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(small)
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(np.stack([big, small]))


def test_stacked_rhs_shape_is_checked():
    with pytest.raises(ValueError):
        solve_linear(np.stack([np.eye(2)] * 3), np.ones(2))
    with pytest.raises(ValueError):
        sym_eig(np.ones((2, 2, 2, 2)))
