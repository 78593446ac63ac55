"""Guarded dense linear algebra over numpy's LAPACK routines.

Every routine takes one square matrix (m, m) or a stack of them (k, m, m)
and checks that each is square with finite entries.  Solves and inverses
raise SingularMatrixError once the 1-norm condition number of any matrix in
the stack reaches COND_LIMIT, a test _check_condition also applies to
conditions computed in closed form; the eigensolver rejects a matrix that is
not symmetric to 1e-12 of its own scale.  Every guard is applied per matrix,
so a stack passes exactly when each of its matrices would pass alone.  All
routines take and return plain float64 numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

COND_LIMIT = 1e12

STACK_ENTRIES = 1 << 13
"""Entry budget, n * n per row, of calls building n x n operators per row: trial blocks and
the chunks of jordan.tensor_inverse and of the PSD inverse's condition take stack_rows rows,
which changes no result.  Maps take whole stacks; a duck-typed map building per-row
operators bounds its memory the same way."""


def stack_rows(n: int, points: int = 1) -> int:
    """Rows of `points` base points each one stacked call at dimension n may take; at least 1."""
    return max(1, STACK_ENTRIES // (n * n * points))


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _norm1(a: np.ndarray) -> np.ndarray:
    """1-norm (largest column sum) of each matrix in a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _check_condition(cond: np.ndarray) -> None:
    """Refuse a stack once the 1-norm condition of any of its matrices reaches COND_LIMIT."""
    # the worst matrix of a stack; max propagates NaN, which fails the test too
    worst = cond.max()
    if not worst < COND_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular to working precision (1-norm condition {worst:.3e})"
        )


def _guarded_inverse(a: np.ndarray) -> np.ndarray:
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    _check_condition(_norm1(a) * _norm1(inv))
    return inv


def solve_linear(a, b) -> np.ndarray:
    """Solve a @ x = b, refusing matrices singular to working precision.

    A stack of matrices (k, m, m) takes a stack of right-hand sides (k, m).
    """
    a = _as_square(a)
    b = np.asarray(b, dtype=float)
    if b.shape != a.shape[:-1]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    _guarded_inverse(a)
    return np.linalg.solve(a, b[..., None])[..., 0]


def mat_inverse(a) -> np.ndarray:
    """Matrix inverse, refusing matrices singular to working precision."""
    return _guarded_inverse(_as_square(a))


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, or of each in a stack.

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    """
    a = _as_square(a)
    scale = np.abs(a).max(axis=(-2, -1), initial=1.0)
    if (np.abs(a - a.mT).max(axis=(-2, -1)) > 1e-12 * scale).any():
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh(0.5 * (a + a.mT))
