"""Cone geometry kernel: membership, order-unit norms, gauges, Thompson metric.

Supported families: nonnegative orthant, Lorentz (second-order) cone,
symmetric positive semidefinite matrices, and direct sums of these.  PSD
matrices live in ambient coordinates through a sqrt(2)-scaled
upper-triangular vectorization, so the Euclidean inner product of coordinate
vectors equals the trace inner product of the matrices they represent.

Each family is one class, a subclass of ConeSpec, and the single home of its
formulas: membership and spectral bounds here, and the builtin Jordan product
x*y (multiply) and closed-form inverse that jordan uses.  DirectSum builds each
of them from its parts, block by block.  What follows from the product needs
no formula of its own: ConeSpec derives L(x) (left_mult_matrix) from
multiply, and jordan the table and P(x) from L(x); the seeded automorphisms
of gauge_maps and the atomicity maximizer of extremal are quadratic
representations P(a), and the pure states and extremal vectors of extremal
are primitive idempotents read off eigenvectors of L(x).  The
module-level functions validate their arguments and call the family's method,
so adding a family is adding one class.

Every gauge quantity has two evaluation routes: a closed form per family
(ratios, a two-root quadratic, or a generalized eigenvalue problem) and a
bisection on the membership oracle alone.  The closed form is the default;
the bisection route is exposed separately so test suites can require the
two to agree.

Membership, norms, gauges, the Thompson distance and the bisections take a
point (n,) or a stack of points (k, n) through the same code; a single point
broadcasts against a stack.  A point gives a float and a stack the array of
its k values, each equal bit for bit to the call on that row alone.  Every
guard applies to each row, so a stack with a bad row raises what that row
raises alone.  The rows of a stack bisect in lockstep, one membership call
per step.  `verify_cone_geometry` draws every trial's samples first, as
stacks, and then evaluates each quantity once over the stack of all trials.

Sampling is an rng draw (`draw_interior`, `draw_positive`) followed by a
placement (`place_interior`, `place_positive`), each over a stack of count
samples.  A draw takes one rng call per kind of number: `standard_normal`
for every direction, then `uniform` for every radius and every factor.  One
sample (count 1) thus draws its normals and then its uniforms, so
`sample_interior_rng` and `sample_positive_rng`, a draw and a placement of
one row, consume the same numbers as a per-point loop of
`standard_normal(n)` and `uniform(low, high)` calls.

Every verification battery draws all of a property's trials first, as one
stack per kind of sample, and evaluates them in blocks (`trial_blocks`; the
gauge suites and check_state_gauge_identity take one block); a block that
raises is re-run one trial at a time on its draws, so the first failing
trial names the error.
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
from .linalg import stack_rows, sym_eig
from .report import PropertyResult, VerificationReport

INTERIOR_MARGIN = 1e-9  # default relative margin separating boundary from inside
_BISECT_ITERS = 80


# --------------------------------------------------------------------------
# cone families
# --------------------------------------------------------------------------

class ConeSpec:
    """Base of the cone families, each a frozen, hashable dataclass holding
    every formula of its kind.

    A family provides:
      dim, label                 ambient dimension and report label;
      default_unit()             its canonical interior point, the unit of its builtin product;
      to_json()                  its JSON form, which cone_from_json reads back;
      slack(x)                   membership slack, the smallest defining inequality;
      spectral_bounds(z, y)      extremes (lo, hi) of the spectrum of z relative to
                                 an interior y: z <= mu*y iff mu >= hi, and
                                 lam*y <= z iff lam <= lo;
      multiply(x, y)             the builtin Jordan product x*y;
      closed_inverse(x)          inverses in that product and the 1-norm condition of
                                 each P(x), or None (the default) for no closed form.
    slack, spectral_bounds and closed_inverse take validated points (n,) or
    stacks (k, n) and give one value per point; spectral_bounds guards the
    interiority of each row of y.  multiply takes points or stacks of any
    leading shape that broadcast against each other, and gives one product
    per broadcast row.  Its one invariant: every L(x) = (y -> x*y) is
    symmetric in the family's coordinates (the Euclidean inner product is
    associative for the product).  sym_eig enforces it where extremal reads
    the pure states and extreme rays off eigenvectors of L(x).  Maps pass
    closed_inverse whole stacks of any length; a routine building an n x n
    operator per point bounds its memory in chunks of stack_rows(n) points,
    as SymPSD's condition and jordan.tensor_inverse do.
    """

    def closed_inverse(self, x):
        return None

    def left_mult_matrix(self, x) -> np.ndarray:
        """L(x) at x or each point of a stack (k, n); its column j, x * b_j, is row j
        of multiply(x, I)."""
        x = np.asarray(x, dtype=float)
        return self.multiply(x[..., None, :], np.eye(self.dim)).mT


def _family(cone) -> ConeSpec:
    """The cone, once checked to be a cone family."""
    if not isinstance(cone, ConeSpec):
        raise UnsupportedConeError(f"unknown cone kind {type(cone)!r}")
    return cone


@dataclass(frozen=True)
class Orthant(ConeSpec):
    """Nonnegative orthant in R^n, with the componentwise product."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("orthant dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.n

    @property
    def label(self) -> str:
        return f"orthant{self.n}"

    def to_json(self) -> dict:
        return {"kind": "orthant", "n": self.n}

    def default_unit(self) -> np.ndarray:
        return np.ones(self.n)

    def slack(self, x):
        return x.min(axis=-1)

    def spectral_bounds(self, z, y):
        if _any(y.min(axis=-1) <= 0.0):
            raise NotInteriorError("reference point must be interior")
        r = z / y
        return r.min(axis=-1), r.max(axis=-1)

    def multiply(self, x, y):
        return x * y

    def closed_inverse(self, x):
        # P(x) = diag(x^2)
        size = np.abs(x)
        return 1.0 / x, np.square(size.max(axis=-1) / size.min(axis=-1))


@dataclass(frozen=True)
class Lorentz(ConeSpec):
    """Second-order cone {x in R^n : x0 >= ||(x1..x_{n-1})||}, with the spin-factor product."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("Lorentz cone needs ambient dimension >= 2")

    @property
    def dim(self) -> int:
        return self.n

    @property
    def label(self) -> str:
        return f"lorentz{self.n}"

    def to_json(self) -> dict:
        return {"kind": "lorentz", "n": self.n}

    def default_unit(self) -> np.ndarray:
        u = np.zeros(self.n)
        u[0] = 1.0
        return u

    def slack(self, x):
        # at x scaled by _pow2_scaled, so |tail|^2 neither overflows nor underflows
        x, shift = _pow2_scaled(x)
        tail = x[..., 1:]
        return np.ldexp(x[..., 0] - np.sqrt(np.vecdot(tail, tail)), -shift[..., 0])

    def spectral_bounds(self, z, y):
        # the two roots of a quadratic at z and y scaled by _pow2_scaled, so
        # q(y) and b^2 - q(y) q(z) stay in range; the bounds of the scaled
        # pair times 2^(s_y - s_z) are those of z and y.  [()] leaves a
        # point's first coordinate and scale a scalar, not a 0-d array
        (z, s_z), (y, s_y) = _pow2_scaled(z), _pow2_scaled(y)
        shift = (s_y - s_z)[..., 0][()]
        y0, z0, ytail, ztail = y[..., 0][()], z[..., 0][()], y[..., 1:], z[..., 1:]
        qy = _square(y0) - np.vecdot(ytail, ytail)
        if _any((qy <= 0.0) | (y0 <= 0.0)):
            raise NotInteriorError("reference point must be interior")
        qz = _square(z0) - np.vecdot(ztail, ztail)
        b = y0 * z0 - np.vecdot(ytail, ztail)
        # max(disc, 0.0) as Python takes it: disc is never -0.0
        root = np.sqrt(np.maximum(b * b - qy * qz, 0.0))
        return np.ldexp((b - root) / qy, shift), np.ldexp((b + root) / qy, shift)

    def multiply(self, x, y):
        # (<x, y>, x_0 t_y + y_0 t_x), t the tail
        tail = x[..., :1] * y[..., 1:] + y[..., :1] * x[..., 1:]
        return np.concatenate([np.vecdot(x, y)[..., None], tail], axis=-1)

    def closed_inverse(self, x):
        # x^-1 = (x_0, -t) / q(x), t the tail and q(x) = x_0^2 - |t|^2, at x
        # scaled by _pow2_scaled
        x, shift = _pow2_scaled(x)
        tail = x[..., 1:]
        q = x[..., 0] * x[..., 0] - np.vecdot(tail, tail)
        inv = x / q[..., None]
        inv[..., 1:] *= -1.0
        # P(x)^-1 = P(x^-1) = R P(x) R / q(x)^2, and R keeps 1-norms, so the
        # condition ||P(x)||_1 ||P(x^-1)||_1 is (||P(x)||_1 / q(x))^2
        return np.ldexp(inv, shift), np.square(_lorentz_norm1(x, q) / q)


def _pow2_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point of a stack times 2**shift, with shift the negated frexp exponent
    of the point's largest |entry|, and that shift.

    The scaled point's largest |entry| lies in [0.5, 1), so P(x) and q(x) of
    it neither overflow nor underflow at extreme scales, and x^-1 is its
    inverse times 2**shift again.  Scaling by a power of two is exact, so
    np.ldexp(inverse, shift) has the bits of the unscaled route wherever that
    route stays in range.
    """
    shift = -np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1]
    return np.ldexp(x, shift), shift


def _lorentz_norm1(x: np.ndarray, q) -> np.ndarray:
    """1-norm of P(x) = 2 x x^T - q(x) R at each point of a stack, with R = diag(1, -1, ..., -1).

    Column j of P(x) sums to 2|x_j| (|x|_1 - |x_j|) + |2 x_j^2 - q(x) R_jj|,
    so no n x n matrix is built.
    """
    size = np.abs(x)
    diag = 2.0 * x * x
    diag[..., 0] -= q
    diag[..., 1:] += q[..., None]
    return (2.0 * size * (size.sum(axis=-1, keepdims=True) - size) + np.abs(diag)).max(axis=-1)


@functools.cache
def _sym_kron(d: int) -> tuple[np.ndarray, ...]:
    """Gather indices and scales building P(X) = X (x) X in svec coordinates.

    P[(ij), (kl)] = c_ij c_kl (X_ik X_jl + X_il X_jk) / 2 over upper-triangle
    pairs i <= j and k <= l, with c the svec scales.  The four index arrays
    (n, n) point into the upper triangle of X in svec order, svec(X) / c; the
    scales come as (n, n, 1), to broadcast over points along the last axis.
    Cached per order and shared, hence read-only.
    """
    rows, cols, scale = _triu(d)
    pos = np.empty((d, d), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(len(rows))
    i, j, k, l = rows[:, None], cols[:, None], rows[None, :], cols[None, :]
    out = (pos[i, k], pos[j, l], pos[i, l], pos[j, k],
           (0.5 * scale[:, None] * scale[None, :])[..., None])
    for arr in out:
        arr.setflags(write=False)
    return out


def _psd_norm1(x: np.ndarray, d: int) -> np.ndarray:
    """1-norm of P(X) in svec coordinates at each point x = svec(X) of a stack, X of order d.

    A chunk of stack_rows(n) points, which bounds the memory and changes no
    result, builds its P as (n, n, chunk): np.take gathers whole rows of the
    transposed chunk, at the same cost per entry however short the chunk.
    """
    ik, jl, il, jk, coef = _sym_kron(d)
    scale = _triu(d)[2]
    rows = x.reshape(-1, x.shape[-1])
    size = stack_rows(x.shape[-1])
    norms = []
    for r in np.split(rows, range(size, len(rows), size)):
        # the upper triangle of each X, one row per entry
        t = np.ascontiguousarray((r / scale).T)
        p = coef * (t.take(ik, axis=0) * t.take(jl, axis=0)
                    + t.take(il, axis=0) * t.take(jk, axis=0))
        # the largest column sum
        norms.append(np.abs(p).sum(axis=0).max(axis=0))
    return np.concatenate(norms).reshape(x.shape[:-1])


@dataclass(frozen=True)
class SymPSD(ConeSpec):
    """Positive semidefinite d x d matrices, vectorized to R^{d(d+1)/2}, with the
    symmetrized matrix product."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("matrix order must be >= 1")

    @property
    def dim(self) -> int:
        return self.d * (self.d + 1) // 2

    @property
    def label(self) -> str:
        return f"psd{self.d}"

    def to_json(self) -> dict:
        return {"kind": "psd", "d": self.d}

    def default_unit(self) -> np.ndarray:
        return svec(np.eye(self.d))

    def slack(self, x):
        return sym_eig(smat(x))[0][..., 0]

    def spectral_bounds(self, z, y):
        # generalized eigenvalues
        zm, ym = smat(z), smat(y)
        eye = np.eye(self.d)
        # an exact identity reference needs no congruence; a stack mixing
        # both kinds of rows takes each kind on its own
        ident = (ym == eye).all(axis=(-2, -1))
        if _all(ident):
            w, _ = sym_eig(zm)
            return w[..., 0], w[..., -1]
        if _any(ident):
            lo, hi = np.empty(len(z)), np.empty(len(z))
            for rows in (ident, ~ident):
                lo[rows], hi[rows] = self.spectral_bounds(z[rows], y[rows])
            return lo, hi
        wy, vy = sym_eig(ym)
        if _any(wy[..., 0] <= 0.0):
            raise NotInteriorError("reference point must be interior")
        # a diagonal factor and a contiguous transpose keep every matrix of a
        # stack on the product a single matrix takes
        inv_sqrt = vy @ (eye / np.sqrt(wy)[..., :, None]) @ np.ascontiguousarray(vy.mT)
        c = inv_sqrt @ zm @ inv_sqrt
        # the congruence is symmetric in exact arithmetic; rounding is not
        w, _ = sym_eig(0.5 * (c + c.mT))
        return w[..., 0], w[..., -1]

    def multiply(self, x, y):
        xm, ym = smat(x), smat(y)
        return svec(0.5 * (xm @ ym + ym @ xm))

    def left_mult_matrix(self, x) -> np.ndarray:
        # in C order: BLAS sums a product of operands in another layout in
        # another order, and the bits of P(x) = 2 L(x)^2 - L(x*x) at the seeded
        # automorphisms and of the pure states are pinned
        return np.ascontiguousarray(super().left_mult_matrix(x))

    def closed_inverse(self, x):
        # X^-1 at x scaled by _pow2_scaled; P(X)^-1 = P(X^-1), so the condition
        # ||P(X)||_1 ||P(X^-1)||_1 is that of the scaled pair
        x, shift = _pow2_scaled(x)
        try:
            inv = svec(np.linalg.inv(smat(x)))
        except np.linalg.LinAlgError:
            # a stack holding an exactly singular matrix reads an infinite
            # condition, which refuses it as any refused row does
            return np.full_like(x, np.nan), np.full(x.shape[:-1], np.inf)
        return np.ldexp(inv, shift), _psd_norm1(x, self.d) * _psd_norm1(inv, self.d)


@dataclass(frozen=True)
class DirectSum(ConeSpec):
    """Direct sum of cone families; coordinates are concatenated blockwise.

    Every formula is built from those of the parts, block by block; a sum
    has no closed-form inverse.
    """

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("direct sum needs at least one part")
        object.__setattr__(self, "parts", tuple(_family(p) for p in self.parts))

    @functools.cached_property
    def dim(self) -> int:
        return sum(p.dim for p in self.parts)

    @functools.cached_property
    def slices(self) -> tuple[slice, ...]:
        """Coordinate block of each part, in order."""
        out, start = [], 0
        for p in self.parts:
            out.append(slice(start, start + p.dim))
            start += p.dim
        return tuple(out)

    @property
    def label(self) -> str:
        return "sum(" + ",".join(p.label for p in self.parts) + ")"

    def to_json(self) -> dict:
        return {"kind": "sum", "parts": [p.to_json() for p in self.parts]}

    def default_unit(self) -> np.ndarray:
        return np.concatenate([p.default_unit() for p in self.parts])

    def slack(self, x):
        return functools.reduce(np.minimum, (p.slack(x[..., s])
                                             for p, s in zip(self.parts, self.slices)))

    def spectral_bounds(self, z, y):
        lohi = [p.spectral_bounds(z[..., s], y[..., s]) for p, s in zip(self.parts, self.slices)]
        return (functools.reduce(_pymin, (lo for lo, _ in lohi)),
                functools.reduce(_pymax, (hi for _, hi in lohi)))

    def multiply(self, x, y):
        x, y = np.broadcast_arrays(x, y)
        return np.concatenate([p.multiply(x[..., s], y[..., s])
                               for p, s in zip(self.parts, self.slices)], axis=-1)


def default_unit(cone: ConeSpec) -> np.ndarray:
    """Canonical interior point: all-ones, (1,0,..), the identity matrix, or a sum's blocks."""
    return _family(cone).default_unit()


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
    """Vectorize a symmetric matrix, or each of a stack (k, d, d), into C order;
    off-diagonals are scaled by sqrt(2)."""
    mat = np.asarray(mat, dtype=float)
    rows, cols, scale = _triu(mat.shape[-1])
    # the gathers of a stack come out column-major; a row must be unit-stride
    return np.multiply(scale * 0.5, mat[..., rows, cols] + mat[..., cols, rows], order="C")


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
    x = as_vector(x, _family(cone).dim, stack=True)
    slack = cone.slack(x)
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

    @functools.cached_property
    def dim(self) -> int:
        """Ambient dimension, worked out once per space."""
        return self.cone.dim


def make_space(cone: ConeSpec, unit=None) -> OrderUnitSpace:
    """Build an order unit space, validating that the unit is interior."""
    cone = _family(cone)
    if unit is None:
        unit = cone.default_unit()
    unit = as_vector(unit, cone.dim)
    scale = max(1.0, float(np.abs(unit).max()))
    if membership_slack(cone, unit) <= INTERIOR_MARGIN * scale:
        raise NotInteriorError("order unit must lie strictly inside the cone")
    unit = unit.copy()
    unit.setflags(write=False)
    return OrderUnitSpace(cone, unit)


# --------------------------------------------------------------------------
# points and stacks
# --------------------------------------------------------------------------

def _broadcast(*points: np.ndarray) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Validated points (n,) and stacks (k, n), points repeated to the stacks' k rows.

    Also returns the leading shape of the result: () when every argument is a
    single point, which then stays one, and (k,) otherwise.
    """
    lead = ()
    for p in points:
        if p.ndim == 2:
            if lead and p.shape[:1] != lead:
                raise DimensionMismatchError(
                    f"stacks of different lengths: {[p.shape for p in points]}")
            lead = p.shape[:1]
    if lead == ():
        return lead, list(points)
    return lead, [p if p.ndim == 2 else np.repeat(p[None], lead[0], axis=0) for p in points]


def _any(mask) -> bool:
    """Whether a per-row test holds at some row; a single point's test is one bool."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def _all(mask) -> bool:
    """Whether a per-row test holds at every row; a single point's test is one bool."""
    return mask.all() if isinstance(mask, np.ndarray) else mask


def _as_rows(x: np.ndarray) -> np.ndarray:
    """A point (n,) as a stack of one row (1, n); a stack as it is."""
    return x.reshape(-1, x.shape[-1])


def _out(values, lead: tuple[int, ...]) -> float | np.ndarray:
    """A single point's value (one or a row of one) as a float, a stack's as its array."""
    return float(values.reshape(())) if lead == () else values


def _pymax(a, b):
    """max(a, b) per element as Python's max takes it: b only where b > a."""
    return np.where(b > a, b, a)


def _pymin(a, b):
    """min(a, b) per element as Python's min takes it: b only where b < a."""
    return np.where(b < a, b, a)


def _square(a: np.ndarray) -> np.ndarray:
    """a ** 2 per element, rounded as a float's ** 2 (C pow) rounds it.

    An array's ** 2 multiplies instead, which differs in the last bit about
    once in 1000 values.
    """
    return np.float_power(a, 2)


def fold_max(values, start: float = 0.0) -> float:
    """Largest of start and the values, folded in row order with Python's max();
    NaN once any value is NaN, so an uncomputed residual fails its property."""
    values = np.ravel(values)
    return math.nan if np.isnan(values).any() else functools.reduce(max, values, start)


def replayed(stacked, single, count: int):
    """stacked(), the evaluation of a whole stack; if that raises, single(i) for
    i = 0 .. count - 1 before the stack's own error is raised again.

    So the first item that fails on its own raises its own error, as a loop of
    single items would.
    """
    try:
        return stacked()
    except Exception:
        for i in range(count):
            single(i)
        raise


def trial_blocks(drawn, n: int, evaluate, points: int = 1) -> np.ndarray:
    """evaluate(*stacks) over the trials in blocks, its results joined in trial order.

    drawn holds the stacks of every trial's draws, one row per trial along
    axis 0, and evaluate gives one result per trial along axis 0.  A block
    holds stack_rows(n, points) trials of points base points building n x n
    operators each.  A block that raises is re-run one trial at a time on the
    draws it holds, so the first trial failing alone raises its own error.
    """
    size = stack_rows(n, points)
    blocks = [[d[start:start + size] for d in drawn] for start in range(0, len(drawn[0]), size)]
    return np.concatenate([replayed(lambda: evaluate(*block),
                                    lambda i: evaluate(*(d[i:i + 1] for d in block)),
                                    len(block[0])) for block in blocks])


# --------------------------------------------------------------------------
# lockstep bisection on the membership oracle
# --------------------------------------------------------------------------

def _double(stops, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First t of 1, 2, 4, ... (at most 200 doublings) per row at which stops holds.

    stops(t, rows) tests the given rows at their values t in one call; rows
    that have stopped are not tested again.  Returns the values and the rows
    that never stopped.
    """
    t = np.ones(count)
    todo = np.arange(count)
    for _ in range(200):
        if todo.size == 0:
            break
        todo = todo[~stops(t[todo], todo)]
        t[todo] *= 2.0
    return t, todo


def _bisect(upper, lo: np.ndarray, hi: np.ndarray,
            iters: int = _BISECT_ITERS) -> tuple[np.ndarray, np.ndarray]:
    """At most iters lockstep halvings of one bracket [lo, hi] per row.

    upper(mid, rows) tests the given rows at their midpoints in one call:
    where it holds the upper end moves down to the midpoint, elsewhere the
    lower end moves up.  A step that leaves a row's bracket as it was would
    repeat at every later step, so that row is not tested again.
    """
    lo, hi = lo.copy(), hi.copy()
    todo = np.arange(len(lo))
    for _ in range(iters):
        if todo.size == 0:
            break
        old_lo, old_hi = lo[todo], hi[todo]
        mid = 0.5 * (old_lo + old_hi)
        up = upper(mid, todo)
        lo[todo], hi[todo] = np.where(up, old_lo, mid), np.where(up, mid, old_hi)
        todo = todo[(lo[todo] != old_lo) | (hi[todo] != old_hi)]
    return lo, hi


# --------------------------------------------------------------------------
# order-unit norm
# --------------------------------------------------------------------------

def order_unit_norm(space: OrderUnitSpace, x, unit=None) -> float | np.ndarray:
    """Smallest lam >= 0 with -lam*u <= x <= lam*u for the (local) unit u.

    x and unit are points (n,) or stacks (k, n); a stack gives the norm of
    each row, against its own row of a stacked unit.
    """
    u = space.unit if unit is None else as_vector(unit, space.dim, stack=True)
    lead, (x, u) = _broadcast(as_vector(x, space.dim, stack=True), u)
    lo, hi = space.cone.spectral_bounds(x, u)
    return _out(_pymax(abs(lo), abs(hi)), lead)


def order_unit_norm_bisect(space: OrderUnitSpace, x, unit=None) -> float | np.ndarray:
    """Same norm evaluated purely through the membership oracle.

    The rows of a stack bisect in lockstep, both sides of each test in one
    membership call.
    """
    u = space.unit if unit is None else as_vector(unit, space.dim, stack=True)
    x = as_vector(x, space.dim, stack=True)
    lead, (x, u) = _broadcast(x, u)
    x, u = _as_rows(x), _as_rows(u)
    cone = space.cone

    def inside(lam, rows):
        shift = lam[:, None] * u[rows]
        slack = membership_slack(cone, np.concatenate([shift - x[rows], shift + x[rows]]))
        return (slack[:len(shift)] >= 0.0) & (slack[len(shift):] >= 0.0)

    norm = np.zeros(len(x))
    rows = np.flatnonzero(~inside(norm, slice(None)))
    if rows.size:
        hi, stuck = _double(lambda t, r: inside(t, rows[r]), rows.size)
        if stuck.size:
            raise NotInteriorError("unit does not dominate the argument")
        norm[rows] = _bisect(lambda mid, r: inside(mid, rows[r]), np.zeros(rows.size), hi)[1]
    return _out(norm, lead)


# --------------------------------------------------------------------------
# gauges and Thompson's metric
# --------------------------------------------------------------------------

def _check_gauge_args(space: OrderUnitSpace, x, y) -> tuple:
    """Validated gauge arguments as rows, with the leading shape of the result.

    Every guard applies to each row.
    """
    x = as_vector(x, space.dim, stack=True)
    y = as_vector(y, space.dim, stack=True)
    xscale = np.abs(x).max(axis=-1)
    if _any(xscale == 0.0):
        raise NotInteriorError("gauges are undefined at the zero vector")
    if _any(membership_slack(space.cone, x) < -1e-12 * xscale):
        raise NotInteriorError("first gauge argument must lie in the cone")
    if _any(membership_slack(space.cone, y) <= 0.0):
        raise NotInteriorError("second gauge argument must be interior")
    return _broadcast(x, y)


def gauge_M(space: OrderUnitSpace, x, y) -> float | np.ndarray:
    """Least mu > 0 with x <= mu*y.

    The first argument may sit on the cone boundary (extreme rays included);
    the reference point y must be interior.  Either argument may be a stack
    (k, n), giving the gauge of each row.
    """
    lead, (x, y) = _check_gauge_args(space, x, y)
    return _out(space.cone.spectral_bounds(x, y)[1], lead)


def gauge_m(space: OrderUnitSpace, x, y) -> float | np.ndarray:
    """Greatest lam > 0 with lam*y <= x.

    Either argument may sit on the boundary, provided the other is interior;
    a boundary reference is resolved through the reciprocity with the upper
    gauge under swapped arguments.  Either argument may be a stack (k, n),
    each row taking the route its own reference calls for.
    """
    x = as_vector(x, space.dim, stack=True)
    y = as_vector(y, space.dim, stack=True)
    inside = membership_slack(space.cone, y) > 0.0
    if _all(inside):
        lead, (x, y) = _check_gauge_args(space, x, y)
        return _out(space.cone.spectral_bounds(x, y)[0], lead)
    if not _any(inside):
        return 1.0 / gauge_M(space, y, x)
    _, (x, y) = _broadcast(x, y)
    out = np.empty(len(y))
    for rows in (inside, ~inside):
        out[rows] = gauge_m(space, x[rows], y[rows])
    return out


def gauge_M_bisect(space: OrderUnitSpace, x, y) -> float | np.ndarray:
    """Membership-oracle route for gauge_M; independent of the closed forms.

    The rows of a stack double and bisect in lockstep.
    """
    lead, (x, y) = _check_gauge_args(space, x, y)
    x, y = _as_rows(x), _as_rows(y)

    def below(t, rows):  # x <= t*y
        return membership_slack(space.cone, t[:, None] * y[rows] - x[rows]) >= 0.0

    hi, stuck = _double(below, len(x))
    if stuck.size:
        raise NotInteriorError("no finite upper gauge")
    return _out(_bisect(below, np.zeros(len(x)), hi)[1], lead)


def gauge_m_bisect(space: OrderUnitSpace, x, y) -> float | np.ndarray:
    """Membership-oracle route for gauge_m.

    The rows of a stack double and bisect in lockstep.
    """
    lead, (x, y) = _check_gauge_args(space, x, y)
    x, y = _as_rows(x), _as_rows(y)

    def slack(t, rows):  # nonnegative when t*y <= x
        return membership_slack(space.cone, x[rows] - t[:, None] * y[rows])

    hi, _ = _double(lambda t, rows: slack(t, rows) < 0.0, len(x))
    lo, _ = _bisect(lambda mid, rows: ~(slack(mid, rows) >= 0.0), np.zeros(len(x)), hi)
    return _out(lo, lead)


def thompson_distance(space: OrderUnitSpace, x, y) -> float | np.ndarray:
    """log of the larger of the two gauges between interior points.

    Either argument may be a stack (k, n); both gauges of every row come
    from one stacked evaluation.
    """
    x = as_vector(x, space.dim, stack=True)
    y = as_vector(y, space.dim, stack=True)
    if _any(membership_slack(space.cone, x) <= 0.0) or _any(membership_slack(space.cone, y) <= 0.0):
        raise NotInteriorError("Thompson distance needs interior points")
    lead, (x, y) = _broadcast(x, y)
    # rows: the upper gauge of x against y, then of y against x
    _, hi = space.cone.spectral_bounds(np.concatenate([_as_rows(x), _as_rows(y)]),
                                       np.concatenate([_as_rows(y), _as_rows(x)]))
    big = _pymax(*hi.reshape(2, -1))
    # math.log per value: np.log rounds differently in the last bit
    return _out(np.array([math.log(v) for v in big]), lead)


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
    return place_interior(space, draw_interior(space, rng, radius, 1))[0]


def sample_positive_rng(space: OrderUnitSpace, rng: np.random.Generator,
                        scale: float = 1.0) -> np.ndarray:
    """Random element of the cone (not necessarily interior) of modest norm."""
    return place_positive(space, draw_positive(space, rng, 1), scale)[0]


# A sample is an rng draw followed by a placement.  A stack of count samples
# takes one rng call per kind of number it draws: every normal direction,
# then every uniform; the placements, which consume no randomness, then go
# over the stack.  One sample (count 1) draws its normals and then its
# uniforms, as a loop of single samples does.

def draw_direction(space: OrderUnitSpace, rng: np.random.Generator, count: int,
                   cap: float = 1.0) -> np.ndarray:
    """Draws of count samples of the order-unit ball of radius cap: rows (count, n + 1).

    A row holds a standard normal direction, then the radius it is scaled to,
    cap times a uniform draw; a zero direction has norm 0 and is kept as it
    is, without a uniform draw.
    """
    u = rng.standard_normal((count, space.dim))
    # on a proper cone the norm is 0 only at the zero vector
    nonzero = u.any(axis=1)
    radius = np.zeros(count)
    if nonzero.any():
        radius[nonzero] = rng.uniform(0.05, 1.0, np.count_nonzero(nonzero)) * cap
    return np.column_stack([u, radius])


def scale_directions(space: OrderUnitSpace, draws: np.ndarray) -> np.ndarray:
    """Directions of draw_direction rows (k, n + 1) scaled to their radii: (k, n).

    Zero directions stay zero; the norms go as one call.
    """
    u, radius = draws[:, :-1], draws[:, -1]
    norm = order_unit_norm(space, u)
    return u * np.divide(radius, norm, out=np.zeros_like(norm), where=norm != 0.0)[:, None]


def draw_interior(space: OrderUnitSpace, rng: np.random.Generator,
                  radius: float, count: int) -> np.ndarray:
    """Draws of count interior samples, draw_direction rows (count, n + 1).

    Radius 0 asks for the unit itself and draws nothing: its rows are zero.
    """
    if radius == 0.0:
        return np.zeros((count, space.dim + 1))
    # A perturbation with ||u||_unit <= 1 - exp(-radius) keeps the point
    # inside the Thompson ball of that radius around the unit.
    return draw_direction(space, rng, count, 1.0 - math.exp(-radius))


def place_interior(space: OrderUnitSpace, draws: np.ndarray) -> np.ndarray:
    """Interior points (k, n) from draw_interior rows (k, n + 1).

    Each point is the unit plus its scaled direction, halved (at most 80
    times) until unit +- direction both clear the interior margin.  The rows
    halve in lockstep, one membership call per side per round; a zero
    direction gives the unit itself.
    """
    unit = np.asarray(space.unit)
    u = scale_directions(space, draws)
    margin = INTERIOR_MARGIN * max(1.0, float(np.abs(unit).max()))

    def fits(v):
        return (membership_slack(space.cone, unit + v) >= margin) & \
            (membership_slack(space.cone, unit - v) >= margin)

    todo = np.flatnonzero(~fits(u))
    for _ in range(80):
        if todo.size == 0:
            break
        u[todo] *= 0.5
        todo = todo[~fits(u[todo])]
    return np.where(draws[:, :-1].any(axis=-1)[:, None], unit + u, unit)


def draw_positive(space: OrderUnitSpace, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draws of count cone elements: interior draws at radius 1, then a factor each
    (count, n + 2)."""
    return np.column_stack([draw_interior(space, rng, 1.0, count), rng.uniform(0.1, 1.0, count)])


def place_positive(space: OrderUnitSpace, draws: np.ndarray, scale=1.0) -> np.ndarray:
    """Cone elements (k, n) of norm scale from draw_positive rows (k, n + 2).

    scale is one float or one per row.
    """
    x = place_interior(space, draws[:, :-1]) * draws[:, -1:]
    return x * (scale / np.maximum(order_unit_norm(space, x), 1e-300))[:, None]


# --------------------------------------------------------------------------
# geometry self-test suite
# --------------------------------------------------------------------------

def verify_cone_geometry(space: OrderUnitSpace, trials: int = 200,
                         seed: int = 42) -> VerificationReport:
    """Property suite for the gauge calculus on one space.

    Covers gauge reciprocity, the four gauge arithmetic identities,
    closed-form versus bisection agreement, the metric axioms and scale
    invariance of the Thompson distance, and the two norm/metric comparison
    inequalities.  Tolerances are pinned per property.  Every trial's samples
    are drawn first, as stacks; each quantity is then evaluated once over the
    stack of all trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    radius = 0.7
    lam = math.exp(radius)

    xyz = draw_interior(space, rng, radius, 3 * trials)
    alpha, beta = rng.uniform(0.2, 3.0, (2, trials))
    spread = rng.uniform(0.0, 0.95, trials)
    x, y, z = place_interior(space, xyz).reshape(3, trials, -1)

    big_m = gauge_M(space, x, y)
    m_yx = gauge_m(space, y, x)
    big_m_yx = gauge_M(space, y, x)
    gamma = spread * alpha * gauge_m(space, x, y)
    r_recip = fold_max(np.abs(m_yx * big_m - 1.0))

    # the four arithmetic identities; columns in the order a trial checks them
    pos = alpha[:, None] * x + beta[:, None] * y
    neg = alpha[:, None] * x - gamma[:, None] * y
    upper_pos, upper_neg = gauge_M(space, np.concatenate([pos, neg]), np.concatenate([x, x])
                                   ).reshape(2, trials)
    lower_pos, lower_neg = gauge_m(space, np.concatenate([pos, neg]), np.concatenate([x, x])
                                   ).reshape(2, trials)
    sum_upper, sum_lower = alpha + beta * big_m_yx, alpha + beta * m_yx
    diff_upper, diff_lower = alpha - gamma * big_m_yx, alpha - gamma * m_yx
    r_arith = fold_max(np.stack([
        np.abs(upper_pos - sum_upper) / sum_upper,
        np.abs(lower_pos - sum_lower) / sum_lower,
        np.abs(lower_neg - diff_upper) / np.maximum(np.abs(diff_upper), 1e-6),
        np.abs(upper_neg - diff_lower) / np.maximum(np.abs(diff_lower), 1e-6),
    ], axis=1))

    gap = order_unit_norm(space, x - y)
    r_bisect = fold_max(np.stack([
        np.abs(gauge_M_bisect(space, x, y) - big_m) / big_m,
        np.abs(order_unit_norm_bisect(space, x - y) - gap) / np.maximum(gap, 1e-12),
    ], axis=1))

    # rows: d(x, y), d(y, x), d(x, z), d(z, y), then d(lam x, lam y) for lam 0.1 and 7
    dxy, dyx, dxz, dzy, d_small, d_large = thompson_distance(
        space, np.concatenate([x, y, x, z, 0.1 * x, 7.0 * x]),
        np.concatenate([y, x, z, y, 0.1 * y, 7.0 * y])).reshape(6, trials)
    r_sym = fold_max(np.abs(dxy - dyx))
    r_tri = fold_max(dxy - dxz - dzy)
    r_scale = fold_max(np.stack([np.abs(d_small - dxy), np.abs(d_large - dxy)], axis=1))
    # x, y >= lam^{-1} v by construction of the sampling radius
    r_upper = fold_max(dxy - lam * gap)
    # x, y <= lam v likewise
    r_lower = fold_max(gap - lam * dxy)

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
        f"cone_geometry:{space.cone.label}", seed, props)


# --------------------------------------------------------------------------
# JSON codecs
# --------------------------------------------------------------------------

def cone_to_json(cone: ConeSpec) -> dict:
    return _family(cone).to_json()


def _json_size(data: dict, key: str) -> int:
    """A size, which JSON must give as an integer: not a float, string or boolean."""
    size = data[key]
    if isinstance(size, bool) or not isinstance(size, int):
        raise ValueError(f"size {key!r} must be an integer, got {size!r}")
    return size


def _json_numbers(data) -> np.ndarray:
    """A JSON number, or arrays of them nested to any depth, as floats.

    Only JSON numbers are taken: a string, boolean or null is refused, not converted.
    """
    values = np.asarray(data, dtype=object)
    for v in values.flat:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"expected a JSON number, got {v!r}")
    return values.astype(float)


def cone_from_json(data: dict) -> ConeSpec:
    kind = data.get("kind")
    if kind == "orthant":
        return Orthant(_json_size(data, "n"))
    if kind == "lorentz":
        return Lorentz(_json_size(data, "n"))
    if kind == "psd":
        return SymPSD(_json_size(data, "d"))
    if kind == "sum":
        return DirectSum(tuple(cone_from_json(p) for p in data["parts"]))
    raise UnsupportedConeError(f"unknown cone kind {kind!r}")


def vector_to_json(x) -> dict:
    return {"coords": [float(c) for c in np.asarray(x, dtype=float)]}


def vector_from_json(data: dict) -> np.ndarray:
    return as_vector(_json_numbers(data["coords"]))
