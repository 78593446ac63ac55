"""Guarded dense linear algebra over numpy's LAPACK routines.

Every routine checks that its matrix is square with finite entries.  Solves
and inverses raise SingularMatrixError once the 1-norm condition number
reaches COND_LIMIT; the eigensolver rejects a matrix that is not symmetric
to 1e-12 of its scale.  All routines take and return plain float64 numpy
arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

COND_LIMIT = 1e12


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _guarded_inverse(a: np.ndarray) -> np.ndarray:
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    cond = np.linalg.norm(a, 1) * np.linalg.norm(inv, 1)
    # written so that a NaN condition number fails too
    if not cond < COND_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular to working precision (1-norm condition {cond:.3e})"
        )
    return inv


def solve_linear(a, b) -> np.ndarray:
    """Solve a @ x = b, refusing matrices singular to working precision."""
    a = _as_square(a)
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    _guarded_inverse(a)
    return np.linalg.solve(a, b)


def mat_inverse(a) -> np.ndarray:
    """Matrix inverse, refusing matrices singular to working precision."""
    return _guarded_inverse(_as_square(a))


def sym_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    """
    a = _as_square(a)
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh(0.5 * (a + a.T))
