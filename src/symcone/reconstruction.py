"""Recovery of a Jordan product from an order-reversing gauge bijection.

The pipeline runs entirely on exact identities, never on finite-difference
step sizes:

  1. directional derivatives of the map come from an algebraic identity that
     expresses them through the map and its inverse alone, for a whole stack
     of directions at one point in three stacked map evaluations;
  2. assembling those directional derivatives at a point yields the full
     derivative matrix, normalized so cross-route checks are possible; the
     n + 1 directions it needs go through the identity as one stack;
  3. the symmetry of the cone at a point is the map post-composed with the
     negated inverse derivative; the symmetry at the order unit plays the
     role of algebra inversion;
  4. the quadratic representation at interior points is read off from the
     symmetry, evaluated on all n + 1 unit probes as one stack; polarizing
     it at the unit gives the multiplication operators, since
     P(e + t*b) - P(e - t*b) = 4t * L(b) holds exactly for a quadratic P
     with P(x, e) = L(x), so 2n interior evaluations yield the product.
     A shift trick that exploits the quadratic-polynomial nature of P
     extends it to the whole space for the identity checks.

Every stage carries a built-in cross check (derivative consistency, inverse
route agreement, commutativity, unit law, and shift independence for the
ambient extension), and `verify_reconstruction` re-derives the textbook
identities on sampled points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (
    OrderUnitSpace,
    INTERIOR_MARGIN,
    as_vector,
    cone_label,
    membership_slack,
    order_unit_norm,
    sample_interior_rng,
    sample_positive_rng,
)
from .errors import (
    AssemblyError,
    DerivativeDomainError,
    DimensionMismatchError,
    ExtractionError,
    NotInteriorError,
    PipelineInconsistencyError,
)
from .gauge_maps import LinearConjugate
from .jordan import (
    ProductTensor,
    check_jb_norm_conditions,
    check_qj_axioms,
    AlgebraHandle,
    tensor_quad_rep,
)
from .linalg import mat_inverse
from .report import PropertyResult, VerificationReport, describe_error


def _maxabs(a) -> float:
    return float(np.abs(a).max())


@dataclass(eq=False)
class DerivativeAtPoint:
    """Derivative matrix of a gauge map at an interior base point."""

    point: np.ndarray
    matrix: np.ndarray


# --------------------------------------------------------------------------
# exact derivatives
# --------------------------------------------------------------------------

def hua_directional_derivative(map_spec, space: OrderUnitSpace, x, u) -> np.ndarray:
    """Directional derivative of the map at x along u, evaluated exactly.

    Requires interior x and u with 2u <= x; under that condition the image
    difference fed to the inverse map stays interior and the returned vector
    equals the derivative with no discretization error.  u may be a stack of
    directions (k, n); each row must meet the conditions, and row i of the
    result is the derivative along row i.
    """
    x = as_vector(x, space.dim)
    u = as_vector(u, space.dim, stack=True)
    scale = max(1.0, _maxabs(x))
    if membership_slack(space.cone, x) <= 0.0 or np.any(membership_slack(space.cone, u) <= 0.0):
        raise NotInteriorError("base point and direction must be interior")
    if np.any(membership_slack(space.cone, x - 2.0 * u) < -1e-12 * scale):
        raise DerivativeDomainError("direction too large: twice the direction must stay below the base point")
    fx = map_spec.apply(x)
    diff = map_spec.apply(u) - fx
    if np.any(membership_slack(space.cone, diff) <= 0.0):
        raise DerivativeDomainError("image difference left the open cone")
    return map_spec.apply(x + map_spec.apply_inverse(diff)) - fx


def _probe_step(space: OrderUnitSpace, x, directions: np.ndarray, margin: float) -> np.ndarray:
    """Largest halving t of 1 keeping x +- t*d strictly interior, per row d.

    directions is a stack (k, n); each round tests the rows still without a
    step in one stacked membership call per side, and halves those that fail.
    """
    steps = np.ones(len(directions))
    todo = np.arange(len(directions))
    for _ in range(80):
        shift = steps[todo, None] * directions[todo]
        fits = (membership_slack(space.cone, x + shift) > margin) & \
            (membership_slack(space.cone, x - shift) > margin)
        todo = todo[~fits]
        if todo.size == 0:
            return steps
        steps[todo] *= 0.5
    raise NotInteriorError("could not fit a probe step inside the cone")


def assemble_derivative(map_spec, space: OrderUnitSpace, x) -> DerivativeAtPoint:
    """Full derivative matrix at x from exact directional derivatives.

    Each column comes from the derivative along a basis direction, obtained
    by differencing two admissible directions; the assembled matrix must
    send x to the negated image of x, which is enforced as a consistency
    residual.
    """
    x = as_vector(x, space.dim)
    eye = np.eye(space.dim)
    margin = INTERIOR_MARGIN * max(1.0, _maxabs(x))
    fx = map_spec.apply(x)
    steps = _probe_step(space, x, eye, margin)
    # row 0 is the base direction x/4, row j + 1 the direction (x + t_j e_j)/4
    dirs = 0.25 * np.vstack([x, x + steps[:, None] * eye])
    derivs = hua_directional_derivative(map_spec, space, x, dirs)
    # row-major, since BLAS rounds products with a transposed view differently
    cols = np.ascontiguousarray(((derivs[1:] - derivs[0]) * (4.0 / steps)[:, None]).T)
    residual = _maxabs(cols @ x + fx) / (1.0 + _maxabs(fx))
    if residual > 1e-7:
        raise AssemblyError(
            f"derivative assembly failed its base-point identity (residual {residual:.3e})")
    return DerivativeAtPoint(x.copy(), cols)


# --------------------------------------------------------------------------
# symmetries and the quadratic representation
# --------------------------------------------------------------------------

def symmetry_at(map_spec, space: OrderUnitSpace, x) -> LinearConjugate:
    """The involutive order-reversing self-map of the cone fixing x.

    Built by post-composing the map with the negated inverse of its
    derivative at x; the fixed-point identity is verified on construction.
    """
    x = as_vector(x, space.dim)
    deriv = assemble_derivative(map_spec, space, x)
    post = -mat_inverse(deriv.matrix)
    sym = LinearConjugate(np.eye(space.dim), map_spec, post)
    residual = order_unit_norm(space, sym.apply(x) - x) / (1.0 + order_unit_norm(space, x))
    if residual > 1e-9:
        raise PipelineInconsistencyError(
            f"symmetry does not fix its base point (residual {residual:.3e})")
    return sym


def inversion_j(map_spec, space: OrderUnitSpace) -> LinearConjugate:
    """Symmetry at the order unit; the recovered algebra's inversion map.

    Assumes the map has already been verified as gauge-reversing.
    """
    return symmetry_at(map_spec, space, space.unit)


class _ProbeSet:
    """Shared probe points near the unit and their images under a map.

    j_points stacks (n + 1, n) the images of the unit and of unit + t_j*e_j,
    from one stacked map evaluation; steps holds the t_j.
    """

    def __init__(self, j_map, space: OrderUnitSpace):
        unit = np.asarray(space.unit)
        margin = INTERIOR_MARGIN * max(1.0, _maxabs(unit))
        eye = np.eye(space.dim)
        self.steps = _probe_step(space, unit, eye, margin)
        self.j_points = j_map.apply(np.vstack([unit, unit + self.steps[:, None] * eye]))


def quad_rep_interior(j_map, space: OrderUnitSpace, x, probes: _ProbeSet | None = None,
                      cross_check: bool = True) -> np.ndarray:
    """Quadratic representation at an interior point, via the symmetry route.

    Columns are assembled from evaluations on the unit and unit-plus-basis
    probes, all n + 1 of them as one stack through two map evaluations.  The
    result is cross-validated against the independent route through the
    inverted derivative of the inversion map; disagreement raises rather than
    returning a silently wrong operator.
    """
    x = as_vector(x, space.dim)
    if membership_slack(space.cone, x) <= 0.0:
        raise NotInteriorError("quadratic representation probe needs an interior point")
    if probes is None:
        probes = _ProbeSet(j_map, space)
    jx = j_map.apply(x)
    images = j_map.apply(jx - j_map.apply(x + probes.j_points)) - x
    cols = np.ascontiguousarray(((images[1:] - images[0]) / probes.steps[:, None]).T)
    if cross_check:
        deriv = assemble_derivative(j_map, space, x)
        alt = mat_inverse(-deriv.matrix)
        deviation = _maxabs(cols - alt) / (1.0 + _maxabs(alt))
        if deviation > 1e-7:
            raise PipelineInconsistencyError(
                f"quadratic representation routes disagree (deviation {deviation:.3e})")
    return cols


def quad_rep_full(j_map, space: OrderUnitSpace, x, probes: _ProbeSet | None = None,
                  cross_check: bool = True, interior_fn=None) -> np.ndarray:
    """Quadratic representation extended to arbitrary ambient points.

    Writes x as a difference of two interior points, x = (x + mu*v) - mu*v,
    and expands the quadratic map through that shift.  The result must not
    depend on the shift size, which is verified by recomputing at twice mu;
    that recomputation also serves as the cross check for its three interior
    evaluations.
    """
    x = as_vector(x, space.dim)
    if interior_fn is None:
        if probes is None:
            probes = _ProbeSet(j_map, space)

        def interior_fn(pt, check):
            return quad_rep_interior(j_map, space, pt, probes, check)

    unit = np.asarray(space.unit)
    mu = order_unit_norm(space, x) + 1.0

    def combo(shift: float, check: bool) -> np.ndarray:
        a = x + shift * unit
        b = shift * unit
        return 2.0 * interior_fn(a, check) + 2.0 * interior_fn(b, check) \
            - interior_fn(a + b, check)

    first = combo(mu, cross_check)
    second = combo(2.0 * mu, False)
    deviation = _maxabs(first - second) / (1.0 + _maxabs(first))
    if deviation > 1e-7:
        raise PipelineInconsistencyError(
            f"quadratic extension depends on the shift (deviation {deviation:.3e})")
    return first


class QuadraticRep:
    """Callable quadratic-representation evaluator over the whole space.

    Interior evaluations feeding the ambient extension are memoized, so calls
    whose shift points coincide share them.
    """

    def __init__(self, j_map, space: OrderUnitSpace, cross_check: bool = True):
        self.j_map = j_map
        self.space = space
        self.cross_check = cross_check
        self.probes = _ProbeSet(j_map, space)
        self._interior_cache: dict[bytes, np.ndarray] = {}

    def _interior_memo(self, pt: np.ndarray, check: bool) -> np.ndarray:
        key = pt.tobytes()
        hit = self._interior_cache.get(key)
        if hit is None:
            hit = quad_rep_interior(self.j_map, self.space, pt, self.probes,
                                    check and self.cross_check)
            self._interior_cache[key] = hit
        return hit

    def __call__(self, x) -> np.ndarray:
        return quad_rep_full(self.j_map, self.space, as_vector(x, self.space.dim),
                             cross_check=self.cross_check,
                             interior_fn=self._interior_memo)

    def interior(self, x) -> np.ndarray:
        return quad_rep_interior(self.j_map, self.space, x, self.probes, self.cross_check)

    def bilinear(self, x, y) -> np.ndarray:
        x = as_vector(x, self.space.dim)
        y = as_vector(y, self.space.dim)
        return 0.5 * (self(x + y) - self(x) - self(y))


def extract_product(j_map, space: OrderUnitSpace) -> ProductTensor:
    """Bilinear product read off by polarizing the quadratic representation at the unit.

    The polarized quadratic representation satisfies P(x, e) = L(x), and P is
    a quadratic polynomial, so (P(e + t*b_i) - P(e - t*b_i)) / (4t) equals the
    multiplication operator L(b_i) exactly; row i of the table is its
    transpose.  Each of the 2n interior evaluations runs the route cross
    check, the operators must commute on the basis (L(b_i) b_j = L(b_j) b_i),
    and the extracted tensor must reproduce the unit law.
    """
    n = space.dim
    unit = np.asarray(space.unit)
    probes = _ProbeSet(j_map, space)
    eye = np.eye(n)
    table = np.empty((n, n, n))
    for i in range(n):
        t = probes.steps[i]  # largest halving keeping unit +- t*b_i interior
        plus = quad_rep_interior(j_map, space, unit + t * eye[:, i], probes)
        minus = quad_rep_interior(j_map, space, unit - t * eye[:, i], probes)
        table[i] = ((plus - minus) / (4.0 * t)).T
    commutator = _maxabs(table - table.transpose(1, 0, 2))
    if commutator > 1e-7:
        raise ExtractionError(
            f"extracted multiplication operators do not commute (residual {commutator:.3e})")
    tensor = ProductTensor(n, unit.copy(), table)
    residual = tensor.unit_law_residual()
    if residual > 1e-8:
        raise ExtractionError(
            f"extracted product violates the unit law (residual {residual:.3e})")
    return tensor


def cross_validate(recovered: ProductTensor, truth: ProductTensor) -> float:
    """Largest entrywise deviation between two product tensors."""
    if recovered.n != truth.n:
        raise DimensionMismatchError("product tensors have different dimensions")
    if _maxabs(recovered.unit - truth.unit) > 1e-9:
        raise DimensionMismatchError("product tensors have different units")
    return _maxabs(recovered.table - truth.table)


# --------------------------------------------------------------------------
# the identity-verification suite
# --------------------------------------------------------------------------

def verify_reconstruction(map_spec, space: OrderUnitSpace, trials: int = 200,
                          seed: int = 42, tol: float = 1e-7) -> VerificationReport:
    """Re-derive the defining identities of the recovered structure on samples.

    Properties are evaluated independently; an exception inside one is
    recorded as a failed property with infinite residual instead of aborting
    the suite, so deliberately broken maps produce a readable report.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    unit = np.asarray(space.unit)
    n = space.dim
    results: list[PropertyResult] = []

    def run(name: str, count: int, tolerance: float, fn) -> None:
        try:
            residual, error = fn(count), None
        except Exception as exc:
            residual, error = math.inf, describe_error(exc)
        results.append(PropertyResult.from_residual(name, count, residual, tolerance, error))

    # --- stage 0: the map round-trips on samples (degenerate-input guard)
    def round_trip(count):
        worst = 0.0
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.8)
            worst = max(worst, order_unit_norm(space, map_spec.apply_inverse(map_spec.apply(x)) - x))
        return worst
    run("round_trip", min(trials, 50), 1e-9, round_trip)

    # --- exact-derivative identities for the map itself
    def hua_identity(count):
        worst = 0.0
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.5)
            y = sample_interior_rng(space, rng, 0.5)
            deriv = assemble_derivative(map_spec, space, x).matrix
            fx = map_spec.apply(x)
            inner = map_spec.apply_inverse(fx + map_spec.apply(y))
            lhs = fx - map_spec.apply(x + y)
            rhs = -(deriv @ inner)
            worst = max(worst, _maxabs(lhs - rhs) / (1.0 + _maxabs(fx)))
        return worst
    run("hua_identity", trials, tol, hua_identity)

    def derivative_formula(count):
        worst = 0.0
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.5)
            deriv = assemble_derivative(map_spec, space, x).matrix
            w = rng.standard_normal(n)
            w /= order_unit_norm(space, w)
            t = _probe_step(space, x, w[None], 0.0)[0]
            u = 0.25 * (x + t * w)
            exact = hua_directional_derivative(map_spec, space, x, u)
            worst = max(worst, _maxabs(exact - deriv @ u) / (1.0 + _maxabs(deriv @ u)))
        return worst
    run("derivative_formula", trials, tol, derivative_formula)

    def first_order_bound(count):
        worst = 0.0
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.4)
            deriv = assemble_derivative(map_spec, space, x).matrix
            y = sample_positive_rng(space, rng, 1.0)
            y *= rng.uniform(0.05, 0.5) / order_unit_norm(space, y, unit=x)
            fx = map_spec.apply(x)
            gap = order_unit_norm(space, map_spec.apply(x + y) - fx - deriv @ y, unit=fx)
            worst = max(worst, gap - order_unit_norm(space, y, unit=x) ** 2)
        return worst
    run("derivative_first_order_bound", trials, 1e-9, first_order_bound)

    def finite_difference(count):
        worst = 0.0
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.4)
            deriv = assemble_derivative(map_spec, space, x).matrix
            y = sample_positive_rng(space, rng, 1.0)
            ynx = order_unit_norm(space, y, unit=x)
            y *= rng.uniform(0.1, 0.5) / ynx
            ynx = order_unit_norm(space, y, unit=x)
            fx = map_spec.apply(x)
            for mu in (1e-2, 1e-3):
                quot = (map_spec.apply(x + mu * y) - fx) / mu
                gap = order_unit_norm(space, quot - deriv @ y, unit=fx)
                worst = max(worst, gap - mu * ynx * ynx)
        return worst
    run("finite_difference_consistency", min(trials, 50), tol, finite_difference)

    # --- symmetry-based identities; from here on work with the inversion j
    def fundamental_identity(count):
        j_map = inversion_j(map_spec, space)
        prep = QuadraticRep(j_map, space)
        worst = 0.0
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.6)
            y = sample_interior_rng(space, rng, 0.6)
            diff = (prep.interior(x) - prep.interior(y)) @ j_map.apply(x + y)
            worst = max(worst, _maxabs(diff - (x - y)) / (1.0 + _maxabs(x - y)))
        return worst
    run("fundamental_identity", trials, tol, fundamental_identity)

    def symmetry_involution(count):
        worst = 0.0
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.6)
            sym = symmetry_at(map_spec, space, x)
            worst = max(worst, order_unit_norm(space, sym.apply(x) - x))
            for _ in range(5):
                z = sample_interior_rng(space, rng, 0.8)
                worst = max(worst, order_unit_norm(space, sym.apply(sym.apply(z)) - z))
        return worst
    run("symmetry_involution", min(trials, 20), 1e-8, symmetry_involution)

    def symmetry_conjugation(count):
        worst = 0.0
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.5)
            y = sample_interior_rng(space, rng, 0.5)
            sx = symmetry_at(map_spec, space, x)
            sy = symmetry_at(map_spec, space, y)
            s_img = symmetry_at(map_spec, space, sx.apply(y))
            for _ in range(20):
                z = sample_interior_rng(space, rng, 0.8)
                lhs = sx.apply(sy.apply(sx.apply(z)))
                worst = max(worst, order_unit_norm(space, lhs - s_img.apply(z)))
        return worst
    run("symmetry_conjugation", 3, tol, symmetry_conjugation)

    def cancellation_identity(count):
        j_map = inversion_j(map_spec, space)
        prep = QuadraticRep(j_map, space)
        worst = 0.0
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.6)
            y = rng.standard_normal(n)
            y *= rng.uniform(0.2, 1.0) / order_unit_norm(space, y)
            val = prep.bilinear(x, y) @ j_map.apply(x)
            worst = max(worst, _maxabs(val - y) / (1.0 + _maxabs(y)))
        return worst
    run("cancellation_identity", 15, tol, cancellation_identity)

    def quad_rep_unit(count):
        j_map = inversion_j(map_spec, space)
        p_unit = quad_rep_interior(j_map, space, unit)
        return _maxabs(p_unit - np.eye(n))
    run("quad_rep_at_unit", 1, 1e-10, quad_rep_unit)

    def parallelogram(count):
        j_map = inversion_j(map_spec, space)
        prep = QuadraticRep(j_map, space)
        worst = 0.0
        for _ in range(count):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            x /= max(order_unit_norm(space, x), 1e-12)
            y /= max(order_unit_norm(space, y), 1e-12)
            dev = prep(x + y) + prep(x - y) - 2.0 * prep(x) - 2.0 * prep(y)
            worst = max(worst, _maxabs(dev) / 4.0)
        return worst
    run("quad_rep_parallelogram", 8, 1e-8, parallelogram)

    # --- recovered product tensor and tensor-based laws
    tensor: ProductTensor | None = None
    tensor_error: Exception | None = None
    j_for_tensor = None
    try:
        j_for_tensor = inversion_j(map_spec, space)
        tensor = extract_product(j_for_tensor, space)
    except Exception as exc:
        tensor_error = exc

    def unit_law(count):
        if tensor is None:
            raise tensor_error
        return tensor.unit_law_residual()
    run("extracted_unit_law", 1, 1e-8, unit_law)

    def pipeline_vs_tensor(count):
        if tensor is None:
            raise tensor_error
        prep = QuadraticRep(j_for_tensor, space)
        worst = 0.0
        for _ in range(count):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.2, 1.2) / order_unit_norm(space, x)
            dev = prep(x) - tensor_quad_rep(tensor, x)
            worst = max(worst, _maxabs(dev) / (1.0 + order_unit_norm(space, x) ** 2))
        return worst
    run("pipeline_vs_tensor", 10, tol, pipeline_vs_tensor)

    def series_identity(count):
        if tensor is None:
            raise tensor_error
        j_map = j_for_tensor
        worst = -math.inf
        for _ in range(count):
            h = rng.standard_normal(n)
            h *= 0.5 / order_unit_norm(space, h)
            total = np.zeros(n)
            power = unit.copy()
            for _k in range(41):
                total = total + power
                power = tensor.multiply(power, h)
            dev = order_unit_norm(space, j_map.apply(unit - h) - total)
            tail = 0.5 ** 41 / (1.0 - 0.5)
            worst = max(worst, dev - tail)
        return max(worst, 0.0)
    run("geometric_series", 10, tol, series_identity)

    def inversion_square_identity(count):
        if tensor is None:
            raise tensor_error
        j_map = j_for_tensor
        worst = 0.0
        for _ in range(count):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.1, 0.9) / order_unit_norm(space, x)
            xsq = tensor.square(x)
            rhs = 2.0 * j_map.apply(j_map.apply(unit - x) + j_map.apply(unit + x))
            worst = max(worst, order_unit_norm(space, unit - xsq - rhs))
        return worst
    run("inversion_square_identity", min(trials, 30), tol, inversion_square_identity)

    def square_bounds(count):
        if tensor is None:
            raise tensor_error
        worst = 0.0
        for _ in range(count):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.0, 1.0) / order_unit_norm(space, x)
            xsq = tensor.square(x)
            worst = max(worst, -membership_slack(space.cone, xsq))
            worst = max(worst, -membership_slack(space.cone, unit - xsq))
        return worst
    run("square_bounds", trials, 1e-9, square_bounds)

    def quad_rep_positive(count):
        if tensor is None:
            raise tensor_error
        worst = 0.0
        for _ in range(count):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.1, 1.5) / order_unit_norm(space, x)
            y = sample_positive_rng(space, rng, rng.uniform(0.1, 1.0))
            worst = max(worst, -membership_slack(space.cone, tensor_quad_rep(tensor, x) @ y))
        return worst
    run("quad_rep_positive", trials, tol, quad_rep_positive)

    def quad_rep_norm(count):
        if tensor is None:
            raise tensor_error
        worst = 0.0
        for _ in range(count):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.1, 1.5) / order_unit_norm(space, x)
            nx = order_unit_norm(space, x)
            val = order_unit_norm(space, tensor_quad_rep(tensor, x) @ unit)
            worst = max(worst, abs(val - nx * nx) / (1.0 + nx * nx))
        return worst
    run("quad_rep_norm", trials, max(tol, 1e-8), quad_rep_norm)

    # --- locality bounds for the map derivative
    def derivative_local_bound(count):
        worst = 0.0
        lam = 1.0 / (math.exp(-0.4) - 0.1)
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.4)
            deriv = assemble_derivative(map_spec, space, x).matrix
            z = rng.standard_normal(n)
            z *= rng.uniform(0.01, 0.1) / order_unit_norm(space, z)
            fx = map_spec.apply(x)
            dev = order_unit_norm(space, map_spec.apply(x + z) - fx - deriv @ z)
            worst = max(worst, dev - 11.0 * lam ** 3 * order_unit_norm(space, z) ** 2)
        return worst
    run("derivative_local_bound", min(trials, 50), tol, derivative_local_bound)

    def derivative_continuity_bound(count):
        worst = 0.0
        lam = math.exp(0.4)
        eye = np.eye(n)
        for _ in range(count):
            x = sample_interior_rng(space, rng, 0.4)
            y = sample_interior_rng(space, rng, 0.4)
            dx = assemble_derivative(map_spec, space, x).matrix
            dy = assemble_derivative(map_spec, space, y).matrix
            gap = dx - dy
            op_est = 0.0
            for k in range(n):
                op_est = max(op_est, order_unit_norm(space, gap @ eye[:, k])
                             / order_unit_norm(space, eye[:, k]))
            for _ in range(10):
                u = rng.standard_normal(n)
                u /= order_unit_norm(space, u)
                op_est = max(op_est, order_unit_norm(space, gap @ u))
            bound = 18.0 * lam ** 3 * order_unit_norm(space, x - y)
            worst = max(worst, op_est - bound)
        return worst
    run("derivative_continuity_bound", min(trials, 30), tol, derivative_continuity_bound)

    # --- axioms and norm laws of the extracted structure
    tensor_law_names = ("qj1_unit", "qj2_triple", "qj3_composition",
                        "nc1_submultiplicative", "nc2_square_norm",
                        "nc3_square_monotone", "quad_rep_norm", "quad_rep_positive")
    if tensor is not None:
        alg = AlgebraHandle(space, tensor)
        qj = check_qj_axioms(alg, trials=trials, seed=seed + 1, tol=tol)
        jb = check_jb_norm_conditions(alg, trials=trials, seed=seed + 2, tol=max(tol, 1e-8))
        for p in qj.properties + jb.properties:
            results.append(PropertyResult(f"tensor_{p.name}", p.trials,
                                          p.max_residual, p.tolerance, p.passed))
    else:
        for name in tensor_law_names:
            results.append(PropertyResult.from_residual(f"tensor_{name}", trials,
                                                        math.inf, tol,
                                                        describe_error(tensor_error)))

    return VerificationReport.from_properties(
        f"reconstruction:{cone_label(space.cone)}", seed, results)
