"""Recovery of a Jordan product from an order-reversing gauge bijection.

The pipeline runs entirely on exact identities, never on finite-difference
step sizes:

  1. directional derivatives of the map come from an algebraic identity that
     expresses them through the map and its inverse alone, for a whole stack
     of directions in three stacked map evaluations;
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
     with P(x, e) = L(x), so 2n interior evaluations, sent as one stack,
     yield the product.  The same polarization at an interior x,
     (P(x + t*y) - P(x - t*y)) / (4t) = P(x, y), serves the cancellation
     identity.  The second difference at the unit,
     P(x) = (P(e + s*x) + P(e - s*x) - 2I) / (2s^2), exact for the same
     reason, extends P to the whole space for the quadraticity and tensor
     checks.

Stages 1 to 4 take one base point (n,) or a stack of them (k, n) through
the same code, returning results with a leading k axis for a stack; every
guard applies to each point with its own tolerance, and a stack with one bad
point raises what that point raises alone.  Every map evaluation
takes its whole stack of rows in one call; a map that builds an n x n
operator per row bounds its own memory, as jordan.tensor_inverse does.

Every stage carries a built-in cross check (derivative consistency, the
symmetry's fixed point, inverse route agreement, commutativity, unit law,
and step independence for the ambient extension), and
`verify_reconstruction` re-derives the textbook
identities on sampled points by the rule of every battery (cones.trial_blocks):
all of a property's trials drawn first, trial by trial, then evaluated in
blocks sized by linalg.STACK_ENTRIES, a raising block re-run trial by trial.
A property that raises, or reads a prerequisite whose build raised (the
inversion j, its quadratic representation, the extracted tensor, each built
once), reads Infinity with that exception: the rule of report.measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cones import (
    OrderUnitSpace,
    INTERIOR_MARGIN,
    _square,
    as_vector,
    draw_interior,
    draw_positive,
    draw_uniform,
    fold_max,
    membership_slack,
    order_unit_norm,
    place_interior,
    place_positive,
    trial_blocks,
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
    quad_rep,
)
from .linalg import mat_inverse
from .report import Prerequisite, PropertyResult, VerificationReport, measure


def _maxabs(a) -> float:
    return float(np.abs(a).max())


def _rowmax(a) -> np.ndarray:
    """Largest absolute entry of each point (last axis) of a point or stack."""
    return np.abs(a).max(axis=-1)


def _matmax(a) -> np.ndarray:
    """Largest absolute entry of each matrix (last two axes) of a matrix or stack."""
    return np.abs(a).max(axis=(-2, -1))


def _gate(values, limit: float, error: type, message: str) -> None:
    """Raise error(message.format(v)) for v the first of the values, in row order, above limit."""
    values = np.ravel(values)
    over = values[values > limit]
    if over.size:
        raise error(message.format(float(over[0])))


def _spread(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Each base point repeated over its rows of a stack, flattened to 2-D.

    x is a point (n,) or a stack of base points (k, n); shape is (m, n), m
    rows at the one point, or (k, m, n), m rows per base point.
    """
    if shape[:-2] != x.shape[:-1] or shape[-1] != x.shape[-1]:
        raise DimensionMismatchError(
            f"a stack of shape {shape} does not match base points of shape {x.shape}")
    return np.broadcast_to(x[..., None, :], shape).reshape(-1, shape[-1])


@dataclass(eq=False)
class DerivativeAtPoint:
    """Derivative matrix of a gauge map at an interior base point.

    image is the map's image of the point, computed on the way.  For a stack
    of base points (k, n) the matrices stack as (k, n, n), the images as (k, n).
    """

    point: np.ndarray
    matrix: np.ndarray
    image: np.ndarray


# --------------------------------------------------------------------------
# exact derivatives
# --------------------------------------------------------------------------

def hua_directional_derivative(map_spec, space: OrderUnitSpace, x, u, fx=None) -> np.ndarray:
    """Directional derivative of the map at x along u, evaluated exactly.

    Requires interior x and u with 2u <= x; under that condition the image
    difference fed to the inverse map stays interior and the returned vector
    equals the derivative with no discretization error.  x is a point (n,) or
    a stack of base points (k, n).  u is one direction per base point (the
    shape of x), or a stack of directions at each: (m, n) at a point, (k, m, n)
    at a stack.  Every row must meet the conditions; the result has u's shape,
    each row the derivative along that direction at its own base point.  fx,
    when the caller already has it, is the map's image of x.
    """
    x = as_vector(x, space.dim, stack=True)
    u = np.asarray(u, dtype=float)
    dirs = u[..., None, :] if u.ndim == x.ndim else u
    xs = _spread(x, dirs.shape)
    us = as_vector(dirs.reshape(xs.shape), space.dim, stack=True)
    if np.any(membership_slack(space.cone, x) <= 0.0) or \
            np.any(membership_slack(space.cone, us) <= 0.0):
        raise NotInteriorError("base point and direction must be interior")
    scale = np.maximum(1.0, _rowmax(xs))
    if np.any(membership_slack(space.cone, xs - 2.0 * us) < -1e-12 * scale):
        raise DerivativeDomainError("direction too large: twice the direction must stay below the base point")
    fxs = _spread(map_spec.apply(x) if fx is None else fx, dirs.shape)
    diff = map_spec.apply(us) - fxs
    if np.any(membership_slack(space.cone, diff) <= 0.0):
        raise DerivativeDomainError("image difference left the open cone")
    images = map_spec.apply(xs + map_spec.apply_inverse(diff))
    return (images - fxs).reshape(u.shape)


def _probe_step(space: OrderUnitSpace, x, directions: np.ndarray, margin) -> np.ndarray:
    """Largest halving t of 1 keeping x +- t*d inside the cone by margin, per direction d.

    x is a point (n,) or a stack of base points (k, n), and directions has one
    more axis, (m, n) or (k, m, n), margin one float or one per base point;
    the steps come back in the directions' leading shape.  Each round tests
    the rows still without a step in one stacked membership call per side,
    and halves those that fail.
    """
    xs = _spread(x, directions.shape)
    ds = directions.reshape(xs.shape)
    margins = np.broadcast_to(np.asarray(margin, dtype=float)[..., None],
                              directions.shape[:-1]).reshape(-1)
    steps = np.ones(len(ds))
    todo = np.arange(len(ds))
    for _ in range(80):
        shift = steps[todo, None] * ds[todo]
        fits = (membership_slack(space.cone, xs[todo] + shift) > margins[todo]) & \
            (membership_slack(space.cone, xs[todo] - shift) > margins[todo])
        todo = todo[~fits]
        if todo.size == 0:
            return steps.reshape(directions.shape[:-1])
        steps[todo] *= 0.5
    raise NotInteriorError("could not fit a probe step inside the cone")


def assemble_derivative(map_spec, space: OrderUnitSpace, x, *, fx=None) -> DerivativeAtPoint:
    """Full derivative matrix at x from exact directional derivatives.

    Each column comes from the derivative along a basis direction, obtained
    by differencing two admissible directions; the assembled matrix must
    send x to the negated image of x, which is enforced as a consistency
    residual.  A stack of base points (k, n) gives a stack of matrices, all
    n + 1 directions of every point going through one stacked evaluation,
    with the residual enforced point by point.  fx, when the caller already
    has it, is the map's image of x.
    """
    x = as_vector(x, space.dim, stack=True)
    eye = np.broadcast_to(np.eye(space.dim), x.shape[:-1] + (space.dim, space.dim))
    margin = INTERIOR_MARGIN * np.maximum(1.0, _rowmax(x))
    if fx is None:
        fx = map_spec.apply(x)
    # half the largest admissible halving: at the full step x - t_j e_j may sit
    # within the margin of the boundary, where the Hua identity's inner
    # inverse evaluation is ill-conditioned
    steps = 0.5 * _probe_step(space, x, eye, margin)
    # row 0 is the base direction x/4, row j + 1 the direction (x + t_j e_j)/4
    base = x[..., None, :]
    dirs = 0.25 * np.concatenate([base, base + steps[..., None] * eye], axis=-2)
    derivs = hua_directional_derivative(map_spec, space, x, dirs, fx)
    # row-major, since BLAS rounds products with a transposed view differently
    cols = np.ascontiguousarray(
        ((derivs[..., 1:, :] - derivs[..., :1, :]) * (4.0 / steps)[..., None]).mT)
    _gate(_rowmax(np.matvec(cols, x) + fx) / (1.0 + _rowmax(fx)), 1e-7, AssemblyError,
          "derivative assembly failed its base-point identity (residual {:.3e})")
    return DerivativeAtPoint(x.copy(), cols, fx)


# --------------------------------------------------------------------------
# symmetries and the quadratic representation
# --------------------------------------------------------------------------

def symmetry_at(map_spec, space: OrderUnitSpace, x) -> LinearConjugate:
    """The involutive order-reversing self-map of the cone fixing x.

    Built by post-composing the map with the negated inverse of its
    derivative at x; the fixed-point identity is verified on construction.
    A stack of base points (k, n) gives one LinearConjugate whose post stacks
    the k operators (k, n, n), so it sends row i of a stack (k, n) through the
    symmetry at the i-th point; the identity is verified point by point.
    """
    return LinearConjugate(None, map_spec, _symmetry_post(map_spec, space, x))


def _symmetry_post(map_spec, space: OrderUnitSpace, x) -> np.ndarray:
    """symmetry_at(...).post without LinearConjugate's inverse; gated on the derivative's image."""
    x = as_vector(x, space.dim, stack=True)
    deriv = assemble_derivative(map_spec, space, x)
    post = -mat_inverse(deriv.matrix)
    _gate(order_unit_norm(space, np.matvec(post, deriv.image) - x)
          / (1.0 + order_unit_norm(space, x)), 1e-9, PipelineInconsistencyError,
          "symmetry does not fix its base point (residual {:.3e})")
    return post


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
    returning a silently wrong operator.  A stack of points (k, n) gives a
    stack of operators (k, n, n) from the same two stacked evaluations, every
    point interior-checked and cross-checked on its own.
    """
    x = as_vector(x, space.dim, stack=True)
    if np.any(membership_slack(space.cone, x) <= 0.0):
        raise NotInteriorError("quadratic representation probe needs an interior point")
    if probes is None:
        probes = _ProbeSet(j_map, space)
    shape = x.shape[:-1] + probes.j_points.shape
    base = _spread(x, shape)
    probe = np.broadcast_to(probes.j_points, shape).reshape(base.shape)
    jx = j_map.apply(x)
    inner = _spread(jx, shape) - j_map.apply(base + probe)
    images = (j_map.apply(inner) - base).reshape(shape)
    cols = np.ascontiguousarray(
        ((images[..., 1:, :] - images[..., :1, :]) / probes.steps[:, None]).mT)
    if cross_check:
        deriv = assemble_derivative(j_map, space, x, fx=jx)
        alt = mat_inverse(-deriv.matrix)
        _gate(_matmax(cols - alt) / (1.0 + _matmax(alt)), 1e-7, PipelineInconsistencyError,
              "quadratic representation routes disagree (deviation {:.3e})")
    return cols


def quad_rep_full(j_map, space: OrderUnitSpace, x, probes: _ProbeSet | None = None,
                  cross_check: bool = True) -> np.ndarray:
    """Quadratic representation extended to arbitrary ambient points.

    P is a quadratic polynomial with P(e) = I, so the second difference at
    the unit, (P(e + s*x) + P(e - s*x) - 2I) / (2s^2), equals P(x) exactly.
    The step s = 0.5 / max(||x||, 0.5) keeps e +- s*x between e/2 and 3e/2.
    The result must not depend on the step, which is verified by recomputing
    at s/2 without the cross check.  A stack of points (k, n) gives a stack
    of operators; each step sends the interior points of all of them through
    one stacked evaluation, and each point's step independence is verified
    on its own.
    """
    x = as_vector(x, space.dim, stack=True)
    if probes is None:
        probes = _ProbeSet(j_map, space)
    unit = np.asarray(space.unit)
    step = 0.5 / np.maximum(order_unit_norm(space, x), 0.5)

    def second_difference(s: np.ndarray, check: bool) -> np.ndarray:
        shift = s[..., None] * x
        pts = np.stack([unit + shift, unit - shift])
        p = quad_rep_interior(j_map, space, pts.reshape(-1, space.dim), probes, check)
        p = p.reshape(pts.shape + (space.dim,))
        return (p[0] + p[1] - 2.0 * np.eye(space.dim)) / (2.0 * s * s)[..., None, None]

    first = second_difference(step, cross_check)
    second = second_difference(0.5 * step, False)
    _gate(_matmax(first - second) / (1.0 + _matmax(first)), 1e-7, PipelineInconsistencyError,
          "quadratic extension depends on the step (deviation {:.3e})")
    return first


class QuadraticRep:
    """Callable quadratic-representation evaluator over the whole space.

    Calling it extends P to any ambient point through quad_rep_full; interior
    and bilinear evaluate P only at interior points, through quad_rep_interior
    with its route cross check.  Each takes a point (n,) or a stack (k, n);
    every call shares one probe set.
    """

    def __init__(self, j_map, space: OrderUnitSpace):
        self.j_map = j_map
        self.space = space
        self.probes = _ProbeSet(j_map, space)

    def __call__(self, x) -> np.ndarray:
        return quad_rep_full(self.j_map, self.space, x, self.probes)

    def interior(self, x) -> np.ndarray:
        return quad_rep_interior(self.j_map, self.space, x, self.probes)

    def bilinear(self, x, y) -> np.ndarray:
        """P(x, y) at interior x, polarized there: (P(x + t*y) - P(x - t*y)) / (4t).

        Exact for a quadratic P.  t is half the largest halving of 1 keeping
        x +- t*y inside the cone by the margin assemble_derivative takes, and
        both points of every pair go through one interior stack.
        """
        n = self.space.dim
        x, y = as_vector(x, n, stack=True), as_vector(y, n, stack=True)
        margin = INTERIOR_MARGIN * np.maximum(1.0, _rowmax(x))
        step = 0.5 * _probe_step(self.space, x, y[..., None, :], margin)[..., 0]
        shift = step[..., None] * y
        # rows 2i and 2i + 1 are the points x_i + t_i*y_i and x_i - t_i*y_i
        pts = np.stack([x + shift, x - shift], axis=-2)
        p = self.interior(pts.reshape(-1, n)).reshape(pts.shape + (n,))
        return (p[..., 0, :, :] - p[..., 1, :, :]) / (4.0 * step)[..., None, None]

    def parallelogram(self, x, y) -> np.ndarray:
        """P(x + y) + P(x - y) - 2P(x) - 2P(y), zero for a quadratic P; one stacked call."""
        n = self.space.dim
        pts = np.stack([as_vector(p, n, stack=True)
                        for p in (np.add(x, y), np.subtract(x, y), x, y)])
        p = self(pts.reshape(-1, n)).reshape(pts.shape + (n,))
        return p[0] + p[1] - 2.0 * p[2] - 2.0 * p[3]


def extract_product(j_map, space: OrderUnitSpace, probes: _ProbeSet | None = None) -> ProductTensor:
    """Bilinear product read off by polarizing the quadratic representation at the unit.

    The polarized quadratic representation satisfies P(x, e) = L(x), and P is
    a quadratic polynomial, so (P(e + t*b_i) - P(e - t*b_i)) / (4t) equals the
    multiplication operator L(b_i) exactly; row i of the table is its
    transpose.  The 2n interior evaluations go through as one stack, each
    running the route cross check; the operators must commute on the basis
    (L(b_i) b_j = L(b_j) b_i), and the extracted tensor must reproduce the
    unit law.
    """
    n = space.dim
    unit = np.asarray(space.unit)
    if probes is None:
        probes = _ProbeSet(j_map, space)
    # t_i is the largest halving keeping unit +- t_i*b_i interior
    shifts = probes.steps[:, None] * np.eye(n)
    # rows 2i and 2i + 1 are the points unit + t_i*b_i and unit - t_i*b_i
    points = np.stack([unit + shifts, unit - shifts], axis=1).reshape(2 * n, n)
    reps = quad_rep_interior(j_map, space, points, probes)
    table = np.ascontiguousarray(
        ((reps[0::2] - reps[1::2]) / (4.0 * probes.steps)[:, None, None]).mT)
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

def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows x_0, y_0, x_1, y_1, ...: the order in which a trial loop visits them."""
    return np.stack([x, y], axis=1).reshape(-1, x.shape[-1])


def verify_reconstruction(map_spec, space: OrderUnitSpace, trials: int = 200,
                          seed: int = 42, tol: float = 1e-7) -> VerificationReport:
    """Re-derive the defining identities of the recovered structure on samples.

    Properties are evaluated independently, each by the rule of
    report.measure (see the module docstring), so deliberately broken maps
    produce a readable report.  Every property draws all its trials first,
    trial by trial, then places and evaluates them in blocks, one stacked
    call per block (see blocked); the first failing trial names a property's
    error.  The symmetry properties build a block's symmetry operators in one
    or two stacked calls and send its trials' probe points through them as
    one stack.  The inversion j, its quadratic representation and the
    extracted tensor are built once per call; the tensor laws are those of
    check_qj_axioms and check_jb_norm_conditions on that tensor.  The
    cancellation identity P(x, y) j(x) = y takes P(x, y) polarized at its
    interior x (QuadraticRep.bilinear); quad_rep_parallelogram and
    pipeline_vs_tensor certify the ambient extension quad_rep_full.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    unit = np.asarray(space.unit)
    n = space.dim
    results: list[PropertyResult] = []

    def blocked(count: int, draw, residuals, points: int = 1) -> float:
        """Largest residual over count trials of points base points each, in blocks.

        draw() returns one trial's samples as a tuple and residuals(*stacks)
        the residuals of a block's trials, trial by trial along axis 0; see
        cones.trial_blocks for the blocks and the re-run of a raising one.
        """
        return fold_max(trial_blocks(count, n, draw, residuals, points))

    # blocks draw their interior samples as draw_interior rows and place them
    # in the block
    def interior(radius: float) -> np.ndarray:
        return draw_interior(space, rng, radius)

    def place(*draws: np.ndarray) -> list[np.ndarray]:
        """Interior points of each equal-length stack of draws, placed in one call."""
        return np.split(place_interior(space, np.concatenate(draws)), len(draws))

    def scaled(x: np.ndarray, size) -> np.ndarray:
        """Each row of x rescaled to its norm in size."""
        return x * (size / order_unit_norm(space, x))[:, None]

    # --- stage 0: the map round-trips on samples (degenerate-input guard)
    def round_trip(count):
        def residuals(x):
            x = place(x)[0]
            return order_unit_norm(space, map_spec.apply_inverse(map_spec.apply(x)) - x)
        return blocked(count, lambda: (interior(0.8),), residuals)
    results.append(measure("round_trip", min(trials, 50), 1e-9, round_trip))

    # --- exact-derivative identities for the map itself
    def hua_identity(count):
        def residuals(x, y):
            x, y = place(x, y)
            deriv = assemble_derivative(map_spec, space, x)
            fx = deriv.image
            inner = map_spec.apply_inverse(fx + map_spec.apply(y))
            lhs = fx - map_spec.apply(x + y)
            rhs = -np.matvec(deriv.matrix, inner)
            return _rowmax(lhs - rhs) / (1.0 + _rowmax(fx))
        return blocked(count, lambda: (interior(0.5), interior(0.5)), residuals)
    results.append(measure("hua_identity", trials, tol, hua_identity))

    def derivative_formula(count):
        def draw():
            return interior(0.5), rng.standard_normal(n)

        def residuals(x, w):
            x = place(x)[0]
            w = w / order_unit_norm(space, w)[:, None]
            deriv = assemble_derivative(map_spec, space, x)
            t = _probe_step(space, x, w[:, None], 0.0)
            u = 0.25 * (x + t * w)
            exact = hua_directional_derivative(map_spec, space, x, u, fx=deriv.image)
            du = np.matvec(deriv.matrix, u)
            return _rowmax(exact - du) / (1.0 + _rowmax(du))
        return blocked(count, draw, residuals)
    results.append(measure("derivative_formula", trials, tol, derivative_formula))

    def first_order_bound(count):
        def draw():
            return interior(0.4), draw_positive(space, rng), draw_uniform(rng, 0.05, 0.5)

        def residuals(x, y, size):
            x, y = place(x)[0], place_positive(space, y)
            y = y * (size / order_unit_norm(space, y, unit=x))[:, None]
            deriv = assemble_derivative(map_spec, space, x)
            fx = deriv.image
            rem = map_spec.apply(x + y) - fx - np.matvec(deriv.matrix, y)
            rem_norm, y_norm = order_unit_norm(
                space, np.concatenate([rem, y]), unit=np.concatenate([fx, x])).reshape(2, -1)
            return rem_norm - _square(y_norm)
        return blocked(count, draw, residuals)
    results.append(measure("derivative_first_order_bound", trials, 1e-9, first_order_bound))

    def finite_difference(count):
        def draw():
            return interior(0.4), draw_positive(space, rng), draw_uniform(rng, 0.1, 0.5)

        def residuals(x, y, size):
            x, y = place(x)[0], place_positive(space, y)
            y = y * (size / order_unit_norm(space, y, unit=x))[:, None]
            deriv = assemble_derivative(map_spec, space, x)
            fx = deriv.image
            dy = np.matvec(deriv.matrix, y)
            mus = (1e-2, 1e-3)
            errs = [(map_spec.apply(x + mu * y) - fx) / mu - dy for mu in mus]
            # rows: y against x, then the error at each step against f(x)
            y_norm, *err_norms = order_unit_norm(
                space, np.concatenate([y, *errs]), unit=np.concatenate([x, fx, fx])
            ).reshape(1 + len(mus), -1)
            return np.column_stack([err - mu * y_norm * y_norm for mu, err in zip(mus, err_norms)])
        return blocked(count, draw, residuals)
    results.append(measure("finite_difference_consistency", min(trials, 50), tol,
                           finite_difference))

    # --- symmetry-based identities; from here on work with the inversion j and
    # its quadratic representation, prerequisites of the properties below
    j = Prerequisite(lambda: inversion_j(map_spec, space))
    quad = Prerequisite(lambda: QuadraticRep(j(), space))

    def fundamental_identity(count):
        prep = quad()

        def residuals(x, y):
            x, y = place(x, y)
            p = prep.interior(_interleave(x, y))
            diff = np.matvec(p[0::2] - p[1::2], prep.j_map.apply(x + y))
            return _rowmax(diff - (x - y)) / (1.0 + _rowmax(x - y))
        return blocked(count, lambda: (interior(0.6), interior(0.6)), residuals, points=2)
    results.append(measure("fundamental_identity", trials, tol, fundamental_identity))

    def through(post: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The symmetry post[i] o map applied to z[i], a point or a stack, for each trial i."""
        images = map_spec.apply(z.reshape(-1, n)).reshape(z.shape)
        return np.matvec(post if z.ndim == 2 else post[:, None], images)

    def symmetric(count: int, radii, size: int, build, residuals, points: int) -> float:
        """Largest residual over count trials, each probing its symmetries at size points.

        A trial draws one interior base point per radius, then size probe
        points at radius 0.8, and builds points symmetry operators.
        build(*bases) makes a block's symmetries from the stacks of placed
        base points in one go, and residuals(built, z) gives each trial's row
        of residuals at its probes z (k, size, n).
        """
        def draw():
            return (*(interior(r) for r in radii), [interior(0.8) for _ in range(size)])

        def evaluate(*drawn):
            *bases, z = drawn
            built = build(*place(*bases))
            z = place_interior(space, z.reshape(-1, n + 1)).reshape(len(z), size, n)
            return residuals(built, z)

        return blocked(count, draw, evaluate, points)

    def symmetry_involution(count):
        def build(x):
            return x, _symmetry_post(map_spec, space, x)

        def residuals(built, z):
            x, post = built
            back = through(post, through(post, z)) - z
            return np.column_stack([order_unit_norm(space, through(post, x) - x),
                                    order_unit_norm(space, back.reshape(-1, n)).reshape(len(x), -1)])
        return symmetric(count, (0.6,), 5, build, residuals, points=1)
    results.append(measure("symmetry_involution", min(trials, 20), 1e-8, symmetry_involution))

    def symmetry_conjugation(count):
        def build(x, y):
            sx, sy = np.split(_symmetry_post(map_spec, space, np.concatenate([x, y])), 2)
            return sx, sy, _symmetry_post(map_spec, space, through(sx, y))

        def residuals(built, z):
            sx, sy, s_img = built
            gap = through(sx, through(sy, through(sx, z))) - through(s_img, z)
            return order_unit_norm(space, gap.reshape(-1, n))
        return symmetric(count, (0.5, 0.5), 20, build, residuals, points=3)
    results.append(measure("symmetry_conjugation", 3, tol, symmetry_conjugation))

    def cancellation_identity(count):
        prep = quad()

        def draw():
            return interior(0.6), rng.standard_normal(n), draw_uniform(rng, 0.2, 1.0)

        def residuals(x, y, size):
            x, y = place(x)[0], scaled(y, size)
            val = np.matvec(prep.bilinear(x, y), prep.j_map.apply(x))
            return _rowmax(val - y) / (1.0 + _rowmax(y))
        # P(x, y) polarized at x, through the interior points x +- t*y
        return blocked(count, draw, residuals, points=2)
    results.append(measure("cancellation_identity", 15, tol, cancellation_identity))

    def quad_rep_unit(count):
        return _maxabs(quad().interior(unit) - np.eye(n))
    results.append(measure("quad_rep_at_unit", 1, 1e-10, quad_rep_unit))

    def parallelogram(count):
        prep = quad()

        def residuals(x, y):
            xy = np.concatenate([x, y])
            xy = xy / np.maximum(order_unit_norm(space, xy), 1e-12)[:, None]
            x, y = xy.reshape(2, len(x), n)
            return _matmax(prep.parallelogram(x, y)) / 4.0
        return blocked(count, lambda: (rng.standard_normal(n), rng.standard_normal(n)), residuals,
                       points=12)
    results.append(measure("quad_rep_parallelogram", 8, 1e-8, parallelogram))

    # --- recovered product tensor, a prerequisite, and tensor-based laws
    product = Prerequisite(lambda: extract_product(j(), space, quad().probes))

    def unit_law(count):
        return product().unit_law_residual()
    results.append(measure("extracted_unit_law", 1, 1e-8, unit_law))

    def pipeline_vs_tensor(count):
        tensor, prep = product(), quad()

        def residuals(x, size):
            x = x * (size / order_unit_norm(space, x))[:, None]
            dev = _matmax(prep(x) - quad_rep(tensor, x))
            return dev / (1.0 + _square(order_unit_norm(space, x)))
        return blocked(count, lambda: (rng.standard_normal(n), draw_uniform(rng, 0.2, 1.2)),
                       residuals, points=3)
    results.append(measure("pipeline_vs_tensor", 10, tol, pipeline_vs_tensor))

    def series_identity(count):
        tensor, j_map = product(), j()
        tail = 0.5 ** 41 / (1.0 - 0.5)

        def residuals(h):
            h = scaled(h, 0.5)
            total = np.zeros_like(h)
            power = np.repeat(unit[None], len(h), axis=0)
            for _k in range(41):
                total = total + power
                power = tensor.multiply(power, h)
            return order_unit_norm(space, j_map.apply(unit - h) - total) - tail
        # a deviation within the tail reads as 0
        return blocked(count, lambda: (rng.standard_normal(n),), residuals)
    results.append(measure("geometric_series", 10, tol, series_identity))

    def inversion_square_identity(count):
        tensor, j_map = product(), j()

        def residuals(x, size):
            x = scaled(x, size)
            rhs = 2.0 * j_map.apply(j_map.apply(unit - x) + j_map.apply(unit + x))
            return order_unit_norm(space, unit - tensor.square(x) - rhs)
        return blocked(count, lambda: (rng.standard_normal(n), draw_uniform(rng, 0.1, 0.9)),
                       residuals)
    results.append(measure("inversion_square_identity", min(trials, 30), tol,
                           inversion_square_identity))

    def square_bounds(count):
        tensor = product()

        def residuals(x, size):
            xsq = tensor.square(scaled(x, size))
            # per trial, the square's violation, then the unit less the square's
            return -np.stack([membership_slack(space.cone, xsq),
                              membership_slack(space.cone, unit - xsq)], axis=1)
        return blocked(count, lambda: (rng.standard_normal(n), draw_uniform(rng, 0.0, 1.0)),
                       residuals)
    results.append(measure("square_bounds", trials, 1e-9, square_bounds))

    def quad_rep_positive(count):
        tensor = product()

        def draw():
            x, size = rng.standard_normal(n), draw_uniform(rng, 0.1, 1.5)
            return x, size, draw_uniform(rng, 0.1, 1.0), draw_positive(space, rng)

        def residuals(x, size, scale, y):
            y = place_positive(space, y, scale)
            return -membership_slack(space.cone,
                                     np.matvec(quad_rep(tensor, scaled(x, size)), y))
        return blocked(count, draw, residuals)
    results.append(measure("quad_rep_positive", trials, tol, quad_rep_positive))

    def quad_rep_norm(count):
        tensor = product()

        def residuals(x, size):
            x = scaled(x, size)
            nx, val = order_unit_norm(space, np.concatenate(
                [x, np.matvec(quad_rep(tensor, x), unit)])).reshape(2, -1)
            return np.abs(val - nx * nx) / (1.0 + nx * nx)
        return blocked(count, lambda: (rng.standard_normal(n), draw_uniform(rng, 0.1, 1.5)),
                       residuals)
    results.append(measure("quad_rep_norm", trials, max(tol, 1e-8), quad_rep_norm))

    # --- locality bounds for the map derivative
    def derivative_local_bound(count):
        lam = 1.0 / (math.exp(-0.4) - 0.1)

        def draw():
            return interior(0.4), rng.standard_normal(n), draw_uniform(rng, 0.01, 0.1)

        def residuals(x, z, size):
            x, z = place(x)[0], scaled(z, size)
            deriv = assemble_derivative(map_spec, space, x)
            rem = map_spec.apply(x + z) - deriv.image - np.matvec(deriv.matrix, z)
            rem_norm, z_norm = order_unit_norm(space, np.concatenate([rem, z])).reshape(2, -1)
            return rem_norm - 11.0 * lam ** 3 * _square(z_norm)
        return blocked(count, draw, residuals)
    results.append(measure("derivative_local_bound", min(trials, 50), tol, derivative_local_bound))

    def derivative_continuity_bound(count):
        lam = math.exp(0.4)
        eye = np.eye(n)

        def draw():
            return interior(0.4), interior(0.4), [rng.standard_normal(n) for _ in range(10)]

        def residuals(x, y, units):
            x, y = place(x, y)
            units = units / order_unit_norm(space, units.reshape(-1, n)).reshape(len(x), -1, 1)
            d = assemble_derivative(map_spec, space, _interleave(x, y)).matrix
            # per trial, the gap's images of the basis vectors (its columns),
            # then of the drawn units
            gap = d[0::2] - d[1::2]
            images = np.concatenate([gap.mT, np.matvec(gap[:, None], units)], axis=1)
            norms = order_unit_norm(space, images.reshape(-1, n)).reshape(len(x), -1)
            norms[:, :n] /= order_unit_norm(space, eye.T)
            op_est = np.array([fold_max(row) for row in norms])
            return op_est - 18.0 * lam ** 3 * order_unit_norm(space, x - y)
        return blocked(count, draw, residuals, points=2)
    results.append(measure("derivative_continuity_bound", min(trials, 30), tol,
                           derivative_continuity_bound))

    # --- axioms and norm laws of the extracted structure, read by the checkers
    for report in (check_qj_axioms(space, product, trials=trials, seed=seed + 1, tol=tol),
                   check_jb_norm_conditions(space, product, trials=trials, seed=seed + 2,
                                            tol=max(tol, 1e-8))):
        results += [replace(p, name=f"tensor_{p.name}") for p in report.properties]

    return VerificationReport.from_properties(
        f"reconstruction:{space.cone.label}", seed, results)
