"""Cone geometry kernel: membership, order-unit norms, gauges, Thompson metric.

Supported families: nonnegative orthant, Lorentz (second-order) cone,
symmetric positive semidefinite matrices, and direct sums of these.  PSD
matrices live in ambient coordinates through a sqrt(2)-scaled
upper-triangular vectorization, so the Euclidean inner product of coordinate
vectors equals the trace inner product of the matrices they represent.

Every gauge quantity has two evaluation routes: a closed form per family
(ratios, a two-root quadratic, or a generalized eigenvalue problem) and a
bisection on the membership oracle alone.  The closed form is the default;
the bisection route is exposed separately so test suites can require the
two to agree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotInteriorError,
    UnsupportedConeError,
)
from .linalg import sym_eig
from .report import PropertyResult, VerificationReport

INTERIOR_MARGIN = 1e-9  # default relative margin separating boundary from inside
_BISECT_ITERS = 80


# --------------------------------------------------------------------------
# cone specifications
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Orthant:
    """Nonnegative orthant in R^n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("orthant dimension must be >= 1")


@dataclass(frozen=True)
class Lorentz:
    """Second-order cone {x in R^n : x0 >= ||(x1..x_{n-1})||}."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("Lorentz cone needs ambient dimension >= 2")


@dataclass(frozen=True)
class SymPSD:
    """Positive semidefinite d x d matrices, vectorized to R^{d(d+1)/2}."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("matrix order must be >= 1")


@dataclass(frozen=True)
class DirectSum:
    """Direct sum of cones; coordinates are concatenated blockwise."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("direct sum needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))


ConeSpec = Orthant | Lorentz | SymPSD | DirectSum


def cone_dim(cone: ConeSpec) -> int:
    if isinstance(cone, Orthant):
        return cone.n
    if isinstance(cone, Lorentz):
        return cone.n
    if isinstance(cone, SymPSD):
        return cone.d * (cone.d + 1) // 2
    if isinstance(cone, DirectSum):
        return sum(cone_dim(p) for p in cone.parts)
    raise UnsupportedConeError(f"unknown cone kind {type(cone)!r}")


@functools.cache
def block_slices(cone: DirectSum) -> tuple[slice, ...]:
    """Coordinate block of each part, in order; cached per (hashable) sum."""
    out, start = [], 0
    for p in cone.parts:
        d = cone_dim(p)
        out.append(slice(start, start + d))
        start += d
    return tuple(out)


def default_unit(cone: ConeSpec) -> np.ndarray:
    """Canonical interior point: all-ones, (1,0,..), or the identity matrix."""
    if isinstance(cone, Orthant):
        return np.ones(cone.n)
    if isinstance(cone, Lorentz):
        u = np.zeros(cone.n)
        u[0] = 1.0
        return u
    if isinstance(cone, SymPSD):
        return svec(np.eye(cone.d))
    if isinstance(cone, DirectSum):
        return np.concatenate([default_unit(p) for p in cone.parts])
    raise UnsupportedConeError(f"unknown cone kind {type(cone)!r}")


# --------------------------------------------------------------------------
# vectors and the symmetric-matrix vectorization
# --------------------------------------------------------------------------

def as_vector(x, n: int | None = None, stack: bool = False) -> np.ndarray:
    """Validate a point (n,), or with stack=True also a stack of points (k, n).

    Coordinates always run along the last axis.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 and not (stack and x.ndim == 2):
        raise DimensionMismatchError(f"expected a vector, got shape {x.shape}")
    if n is not None and x.shape[-1] != n:
        raise DimensionMismatchError(f"expected dimension {n}, got {x.shape[-1]}")
    if not np.isfinite(x).all():
        raise ValueError("vector coordinates must be finite")
    return x


@functools.cache
def _triu(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major upper-triangle indices of a d x d matrix and their svec scales.

    Cached per order, since np.triu_indices costs several times the svec it
    indexes; the arrays are shared, hence read-only.
    """
    rows, cols = np.triu_indices(d)
    out = (rows, cols, np.where(rows == cols, 1.0, math.sqrt(2.0)))
    for arr in out:
        arr.setflags(write=False)
    return out


def svec(mat) -> np.ndarray:
    """Vectorize a symmetric matrix; off-diagonals are scaled by sqrt(2)."""
    mat = np.asarray(mat, dtype=float)
    rows, cols, scale = _triu(mat.shape[0])
    return scale * 0.5 * (mat[rows, cols] + mat[cols, rows])


def smat(vec) -> np.ndarray:
    """Inverse of svec; a stack of vectors (k, n) gives a stack of matrices."""
    vec = np.asarray(vec, dtype=float)
    n = vec.shape[-1]
    d = int((math.isqrt(8 * n + 1) - 1) // 2)
    if d * (d + 1) // 2 != n:
        raise DimensionMismatchError(f"length {n} is not a triangular number")
    rows, cols, scale = _triu(d)
    out = np.empty(vec.shape[:-1] + (d, d))
    out[..., rows, cols] = out[..., cols, rows] = vec / scale
    return out


# --------------------------------------------------------------------------
# membership
# --------------------------------------------------------------------------

def membership_slack(cone: ConeSpec, x) -> float | np.ndarray:
    """Smallest value of the cone's defining inequalities at x.

    Nonnegative slack means membership in the closure; the magnitude of a
    negative slack measures the worst violation.  A point (n,) gives a float,
    a stack of points (k, n) the array of their k slacks.
    """
    x = as_vector(x, cone_dim(cone), stack=True)
    if isinstance(cone, Orthant):
        slack = x.min(axis=-1)
    elif isinstance(cone, Lorentz):
        tail = x[..., 1:]
        slack = x[..., 0] - np.sqrt(np.vecdot(tail, tail))
    elif isinstance(cone, SymPSD):
        slack = sym_eig(smat(x))[0][..., 0]
    elif isinstance(cone, DirectSum):
        slack = functools.reduce(np.minimum, (membership_slack(p, x[..., s])
                                              for p, s in zip(cone.parts, block_slices(cone))))
    else:
        raise UnsupportedConeError(f"unknown cone kind {type(cone)!r}")
    return float(slack) if x.ndim == 1 else slack


def cone_contains(cone: ConeSpec, x, margin: float = 0.0) -> bool:
    """Membership test: every defining inequality holds with slack >= margin.

    margin > 0 asks for interior points, margin = 0 for the closure, and a
    negative margin tolerates roundoff-sized violations.
    """
    return membership_slack(cone, x) >= margin


# --------------------------------------------------------------------------
# order unit spaces
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OrderUnitSpace:
    """A cone together with a distinguished interior order unit."""

    cone: ConeSpec
    unit: np.ndarray

    @property
    def dim(self) -> int:
        return cone_dim(self.cone)


def make_space(cone: ConeSpec, unit=None) -> OrderUnitSpace:
    """Build an order unit space, validating that the unit is interior."""
    if unit is None:
        unit = default_unit(cone)
    unit = as_vector(unit, cone_dim(cone))
    scale = max(1.0, float(np.abs(unit).max()))
    if membership_slack(cone, unit) <= INTERIOR_MARGIN * scale:
        raise NotInteriorError("order unit must lie strictly inside the cone")
    unit = unit.copy()
    unit.setflags(write=False)
    return OrderUnitSpace(cone, unit)


# --------------------------------------------------------------------------
# generalized spectral bounds: the workhorse behind norms and gauges
# --------------------------------------------------------------------------

def _spectral_bounds(cone: ConeSpec, z, y) -> tuple[float, float]:
    """Extremes (lo, hi) of the spectrum of z relative to an interior y.

    They satisfy: z <= mu*y  iff  mu >= hi, and  lam*y <= z  iff  lam <= lo.
    For the orthant these are coordinate ratios, for the Lorentz cone the two
    roots of a quadratic, and for PSD matrices generalized eigenvalues.
    """
    z = as_vector(z, cone_dim(cone))
    y = as_vector(y, cone_dim(cone))
    if isinstance(cone, Orthant):
        if y.min() <= 0.0:
            raise NotInteriorError("reference point must be interior")
        r = z / y
        return float(r.min()), float(r.max())
    if isinstance(cone, Lorentz):
        qy = float(y[0] ** 2 - y[1:] @ y[1:])
        if qy <= 0.0 or y[0] <= 0.0:
            raise NotInteriorError("reference point must be interior")
        qz = float(z[0] ** 2 - z[1:] @ z[1:])
        b = float(y[0] * z[0] - y[1:] @ z[1:])
        disc = max(b * b - qy * qz, 0.0)
        root = math.sqrt(disc)
        return (b - root) / qy, (b + root) / qy
    if isinstance(cone, SymPSD):
        zm = smat(z)
        ym = smat(y)
        if np.array_equal(ym, np.eye(cone.d)):
            w, _ = sym_eig(zm)
            return float(w[0]), float(w[-1])
        wy, vy = sym_eig(ym)
        if wy[0] <= 0.0:
            raise NotInteriorError("reference point must be interior")
        inv_sqrt = vy @ np.diag(1.0 / np.sqrt(wy)) @ vy.T
        c = inv_sqrt @ zm @ inv_sqrt
        # the congruence is symmetric in exact arithmetic; rounding is not
        w, _ = sym_eig(0.5 * (c + c.T))
        return float(w[0]), float(w[-1])
    if isinstance(cone, DirectSum):
        lohi = [_spectral_bounds(p, z[s], y[s]) for p, s in zip(cone.parts, block_slices(cone))]
        return min(lo for lo, _ in lohi), max(hi for _, hi in lohi)
    raise UnsupportedConeError(f"unknown cone kind {type(cone)!r}")


# --------------------------------------------------------------------------
# order-unit norm
# --------------------------------------------------------------------------

def order_unit_norm(space: OrderUnitSpace, x, unit=None) -> float:
    """Smallest lam >= 0 with -lam*u <= x <= lam*u for the (local) unit u."""
    u = space.unit if unit is None else as_vector(unit, space.dim)
    lo, hi = _spectral_bounds(space.cone, x, u)
    return max(abs(lo), abs(hi))


def order_unit_norm_bisect(space: OrderUnitSpace, x, unit=None) -> float:
    """Same norm evaluated purely through the membership oracle."""
    u = space.unit if unit is None else as_vector(unit, space.dim)
    x = as_vector(x, space.dim)
    cone = space.cone

    def inside(lam: float) -> bool:
        return membership_slack(cone, lam * u - x) >= 0.0 and \
            membership_slack(cone, lam * u + x) >= 0.0

    if inside(0.0):
        return 0.0
    hi = 1.0
    for _ in range(200):
        if inside(hi):
            break
        hi *= 2.0
    else:
        raise NotInteriorError("unit does not dominate the argument")
    lo = 0.0
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return hi


# --------------------------------------------------------------------------
# gauges and Thompson's metric
# --------------------------------------------------------------------------

def _check_gauge_args(space: OrderUnitSpace, x, y) -> tuple[np.ndarray, np.ndarray]:
    x = as_vector(x, space.dim)
    y = as_vector(y, space.dim)
    xscale = float(np.abs(x).max())
    if xscale == 0.0:
        raise NotInteriorError("gauges are undefined at the zero vector")
    if membership_slack(space.cone, x) < -1e-12 * xscale:
        raise NotInteriorError("first gauge argument must lie in the cone")
    if membership_slack(space.cone, y) <= 0.0:
        raise NotInteriorError("second gauge argument must be interior")
    return x, y


def gauge_M(space: OrderUnitSpace, x, y) -> float:
    """Least mu > 0 with x <= mu*y.

    The first argument may sit on the cone boundary (extreme rays included);
    the reference point y must be interior.
    """
    x, y = _check_gauge_args(space, x, y)
    _, hi = _spectral_bounds(space.cone, x, y)
    return hi


def gauge_m(space: OrderUnitSpace, x, y) -> float:
    """Greatest lam > 0 with lam*y <= x.

    Either argument may sit on the boundary, provided the other is interior;
    a boundary reference is resolved through the reciprocity with the upper
    gauge under swapped arguments.
    """
    x = as_vector(x, space.dim)
    y = as_vector(y, space.dim)
    if membership_slack(space.cone, y) > 0.0:
        x, y = _check_gauge_args(space, x, y)
        lo, _ = _spectral_bounds(space.cone, x, y)
        return lo
    return 1.0 / gauge_M(space, y, x)


def gauge_M_bisect(space: OrderUnitSpace, x, y) -> float:
    """Membership-oracle route for gauge_M; independent of the closed forms."""
    x, y = _check_gauge_args(space, x, y)
    cone = space.cone
    hi = 1.0
    for _ in range(200):
        if membership_slack(cone, hi * y - x) >= 0.0:
            break
        hi *= 2.0
    else:
        raise NotInteriorError("no finite upper gauge")
    lo = 0.0
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if membership_slack(cone, mid * y - x) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def gauge_m_bisect(space: OrderUnitSpace, x, y) -> float:
    """Membership-oracle route for gauge_m."""
    x, y = _check_gauge_args(space, x, y)
    cone = space.cone
    lo = 0.0
    hi = 1.0
    for _ in range(200):
        if membership_slack(cone, x - hi * y) < 0.0:
            break
        hi *= 2.0
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if membership_slack(cone, x - mid * y) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def thompson_distance(space: OrderUnitSpace, x, y) -> float:
    """log of the larger of the two gauges between interior points."""
    x = as_vector(x, space.dim)
    y = as_vector(y, space.dim)
    if membership_slack(space.cone, x) <= 0.0 or membership_slack(space.cone, y) <= 0.0:
        raise NotInteriorError("Thompson distance needs interior points")
    return math.log(max(gauge_M(space, x, y), gauge_M(space, y, x)))


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def sample_interior(space: OrderUnitSpace, seed: int, radius: float) -> np.ndarray:
    """Deterministic interior point within the given Thompson-metric radius
    of the unit.  radius = 0 returns the unit itself."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return sample_interior_rng(space, np.random.default_rng(seed), radius)


def sample_interior_rng(space: OrderUnitSpace, rng: np.random.Generator,
                        radius: float) -> np.ndarray:
    unit = np.asarray(space.unit)
    if radius == 0.0:
        return unit.copy()
    u = rng.standard_normal(space.dim)
    norm = order_unit_norm(space, u)
    if norm == 0.0:
        return unit.copy()
    # A perturbation with ||u||_unit <= 1 - exp(-radius) keeps the point
    # inside the Thompson ball of that radius around the unit.
    cap = 1.0 - math.exp(-radius)
    u *= rng.uniform(0.05, 1.0) * cap / norm
    margin = INTERIOR_MARGIN * max(1.0, float(np.abs(unit).max()))
    for _ in range(80):
        if cone_contains(space.cone, unit + u, margin) and \
                cone_contains(space.cone, unit - u, margin):
            break
        u *= 0.5
    return unit + u


def sample_positive_rng(space: OrderUnitSpace, rng: np.random.Generator,
                        scale: float = 1.0) -> np.ndarray:
    """Random element of the cone (not necessarily interior) of modest norm."""
    x = sample_interior_rng(space, rng, 1.0) * rng.uniform(0.1, 1.0)
    return x * (scale / max(order_unit_norm(space, x), 1e-300))


# --------------------------------------------------------------------------
# geometry self-test suite
# --------------------------------------------------------------------------

def verify_cone_geometry(space: OrderUnitSpace, trials: int = 200,
                         seed: int = 42) -> VerificationReport:
    """Property suite for the gauge calculus on one space.

    Covers gauge reciprocity, the four gauge arithmetic identities,
    closed-form versus bisection agreement, the metric axioms and scale
    invariance of the Thompson distance, and the two norm/metric comparison
    inequalities.  Tolerances are pinned per property.
    """
    rng = np.random.default_rng(seed)
    radius = 0.7
    lam = math.exp(radius)

    r_recip = r_arith = r_bisect = r_tri = r_scale = r_upper = r_lower = 0.0
    r_sym = 0.0
    for _ in range(trials):
        x = sample_interior_rng(space, rng, radius)
        y = sample_interior_rng(space, rng, radius)
        z = sample_interior_rng(space, rng, radius)

        big_m = gauge_M(space, x, y)
        r_recip = max(r_recip, abs(gauge_m(space, y, x) * big_m - 1.0))

        alpha, beta = rng.uniform(0.2, 3.0, size=2)
        gamma = rng.uniform(0.0, 0.95) * alpha * gauge_m(space, x, y)
        m_yx = gauge_m(space, y, x)
        r_arith = max(
            r_arith,
            abs(gauge_M(space, alpha * x + beta * y, x) - (alpha + beta * gauge_M(space, y, x)))
            / (alpha + beta * gauge_M(space, y, x)),
            abs(gauge_m(space, alpha * x + beta * y, x) - (alpha + beta * m_yx))
            / (alpha + beta * m_yx),
            abs(gauge_m(space, alpha * x - gamma * y, x) - (alpha - gamma * gauge_M(space, y, x)))
            / max(abs(alpha - gamma * gauge_M(space, y, x)), 1e-6),
            abs(gauge_M(space, alpha * x - gamma * y, x) - (alpha - gamma * m_yx))
            / max(abs(alpha - gamma * m_yx), 1e-6),
        )

        r_bisect = max(
            r_bisect,
            abs(gauge_M_bisect(space, x, y) - big_m) / big_m,
            abs(order_unit_norm_bisect(space, x - y) - order_unit_norm(space, x - y))
            / max(order_unit_norm(space, x - y), 1e-12),
        )

        dxy = thompson_distance(space, x, y)
        r_sym = max(r_sym, abs(dxy - thompson_distance(space, y, x)))
        r_tri = max(r_tri, dxy - thompson_distance(space, x, z) - thompson_distance(space, z, y))
        for lam_s in (0.1, 7.0):
            r_scale = max(r_scale, abs(thompson_distance(space, lam_s * x, lam_s * y) - dxy))

        # x, y >= lam^{-1} v by construction of the sampling radius
        r_upper = max(r_upper, dxy - lam * order_unit_norm(space, x - y))
        # x, y <= lam v likewise
        r_lower = max(r_lower, order_unit_norm(space, x - y) - lam * dxy)

    props = [
        PropertyResult.from_residual("gauge_reciprocity", trials, r_recip, 1e-10),
        PropertyResult.from_residual("gauge_arithmetic", trials, r_arith, 1e-9),
        PropertyResult.from_residual("closed_vs_bisection", trials, r_bisect, 1e-9),
        PropertyResult.from_residual("metric_symmetry", trials, r_sym, 0.0),
        PropertyResult.from_residual("metric_triangle", trials, r_tri, 1e-10),
        PropertyResult.from_residual("metric_scale_invariance", trials, r_scale, 1e-12),
        PropertyResult.from_residual("metric_vs_norm_upper", trials, r_upper, 1e-10),
        PropertyResult.from_residual("metric_vs_norm_lower", trials, r_lower, 1e-10),
    ]
    return VerificationReport.from_properties(
        f"cone_geometry:{cone_label(space.cone)}", seed, props)


# --------------------------------------------------------------------------
# JSON codecs
# --------------------------------------------------------------------------

def cone_label(cone: ConeSpec) -> str:
    if isinstance(cone, Orthant):
        return f"orthant{cone.n}"
    if isinstance(cone, Lorentz):
        return f"lorentz{cone.n}"
    if isinstance(cone, SymPSD):
        return f"psd{cone.d}"
    if isinstance(cone, DirectSum):
        return "sum(" + ",".join(cone_label(p) for p in cone.parts) + ")"
    raise UnsupportedConeError(f"unknown cone kind {type(cone)!r}")


def cone_to_json(cone: ConeSpec) -> dict:
    if isinstance(cone, Orthant):
        return {"kind": "orthant", "n": cone.n}
    if isinstance(cone, Lorentz):
        return {"kind": "lorentz", "n": cone.n}
    if isinstance(cone, SymPSD):
        return {"kind": "psd", "d": cone.d}
    if isinstance(cone, DirectSum):
        return {"kind": "sum", "parts": [cone_to_json(p) for p in cone.parts]}
    raise UnsupportedConeError(f"unknown cone kind {type(cone)!r}")


def cone_from_json(data: dict) -> ConeSpec:
    kind = data.get("kind")
    if kind == "orthant":
        return Orthant(int(data["n"]))
    if kind == "lorentz":
        return Lorentz(int(data["n"]))
    if kind == "psd":
        return SymPSD(int(data["d"]))
    if kind == "sum":
        return DirectSum(tuple(cone_from_json(p) for p in data["parts"]))
    raise UnsupportedConeError(f"unknown cone kind {kind!r}")


def vector_to_json(x) -> dict:
    return {"coords": [float(c) for c in np.asarray(x, dtype=float)]}


def vector_from_json(data: dict) -> np.ndarray:
    return as_vector(data["coords"])
