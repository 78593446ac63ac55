"""Reference math for checking symcone's outputs, written with numpy alone.

Nothing here imports symcone.  Cones are described by plain tuples:
("orthant", n), ("lorentz", n), ("psd", d) and ("sum", (part, ...)), with
the same ambient coordinates symcone documents: R^n for the orthant and the
Lorentz cone, the sqrt(2)-scaled upper-triangular vectorization for PSD
matrices, and concatenated blocks for direct sums.

Products come from their textbook formulas, and gauges from the generalized
eigenvalues of a pencil (A(x), A(y)), where A is a linear map into
symmetric matrices with z in K  <=>  A(z) is positive semidefinite.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


def dim(cone) -> int:
    kind, arg = cone
    if kind in ("orthant", "lorentz"):
        return arg
    if kind == "psd":
        return arg * (arg + 1) // 2
    if kind == "sum":
        return sum(dim(p) for p in arg)
    raise ValueError(f"unknown cone kind {kind!r}")


def blocks(cone) -> list[tuple[tuple, slice]]:
    """(part, coordinate slice) for each summand of a direct sum."""
    out, start = [], 0
    for part in cone[1]:
        n = dim(part)
        out.append((part, slice(start, start + n)))
        start += n
    return out


def unit(cone) -> np.ndarray:
    kind, arg = cone
    if kind == "orthant":
        return np.ones(arg)
    if kind == "lorentz":
        return np.eye(arg)[0]
    if kind == "psd":
        return svec(np.eye(arg))
    return np.concatenate([unit(p) for p, _ in blocks(cone)])


# --------------------------------------------------------------------------
# the symmetric-matrix vectorization
# --------------------------------------------------------------------------

def _triu(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(d)
    return rows, cols, np.where(rows == cols, 1.0, SQRT2)


def svec(mat) -> np.ndarray:
    """Row-major upper triangle, off-diagonal entries scaled by sqrt(2)."""
    mat = np.asarray(mat, dtype=float)
    rows, cols, scale = _triu(mat.shape[0])
    return scale * 0.5 * (mat[rows, cols] + mat[cols, rows])


def smat(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    d = int(round((math.sqrt(8 * vec.shape[0] + 1) - 1) / 2))
    rows, cols, scale = _triu(d)
    out = np.zeros((d, d))
    out[rows, cols] = vec / scale
    out[cols, rows] = vec / scale
    return out


# --------------------------------------------------------------------------
# Jordan products
# --------------------------------------------------------------------------

def product(cone, a, b) -> np.ndarray:
    """The Jordan product whose cone of squares is the cone."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    kind = cone[0]
    if kind == "orthant":
        return a * b
    if kind == "lorentz":
        return np.concatenate(([a @ b], a[0] * b[1:] + b[0] * a[1:]))
    if kind == "psd":
        am, bm = smat(a), smat(b)
        return svec(0.5 * (am @ bm + bm @ am))
    return np.concatenate([product(p, a[s], b[s]) for p, s in blocks(cone)])


def product_table(cone) -> np.ndarray:
    """table[i, j] = coordinates of the product of basis vectors i and j."""
    n = dim(cone)
    eye = np.eye(n)
    table = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            table[i, j] = product(cone, eye[i], eye[j])
    return table


# --------------------------------------------------------------------------
# gauges from generalized eigenvalues
# --------------------------------------------------------------------------

def lmi(cone, z) -> np.ndarray:
    """Symmetric matrix A(z), positive semidefinite exactly when z is in the cone."""
    z = np.asarray(z, dtype=float)
    kind = cone[0]
    if kind == "orthant":
        return np.diag(z)
    if kind == "lorentz":
        n = z.shape[0]
        arrow = z[0] * np.eye(n)
        arrow[0, 1:] = z[1:]
        arrow[1:, 0] = z[1:]
        return arrow
    if kind == "psd":
        return smat(z)
    parts = [lmi(p, z[s]) for p, s in blocks(cone)]
    size = sum(m.shape[0] for m in parts)
    out = np.zeros((size, size))
    k = 0
    for m in parts:
        out[k:k + m.shape[0], k:k + m.shape[0]] = m
        k += m.shape[0]
    return out


def pencil_eigvals(cone, x, y) -> np.ndarray:
    """Ascending eigenvalues of A(x) v = lam A(y) v, for interior y."""
    chol = np.linalg.cholesky(lmi(cone, y))
    half = np.linalg.solve(chol, lmi(cone, x))
    return np.linalg.eigvalsh(np.linalg.solve(chol, half.T))


def gauge_M(cone, x, y) -> float:
    """Least mu with mu*y - x in the cone."""
    return float(pencil_eigvals(cone, x, y)[-1])


def gauge_m(cone, x, y) -> float:
    """Greatest lam with x - lam*y in the cone."""
    return float(pencil_eigvals(cone, x, y)[0])


def thompson_distance(cone, x, y) -> float:
    return math.log(max(gauge_M(cone, x, y), gauge_M(cone, y, x)))


def order_unit_norm(cone, x) -> float:
    w = pencil_eigvals(cone, x, unit(cone))
    return float(max(abs(w[0]), abs(w[-1])))


def close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * max(1.0, abs(reference))
