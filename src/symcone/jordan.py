"""Builtin Jordan algebra structures on the supported cones, plus checkers.

Each cone family states its builtin product as one formula, a method of its
class in cones (multiply, with closed_inverse beside it): the orthant carries
the componentwise product, the Lorentz cone the spin-factor product, and PSD
matrices the symmetrized matrix product; direct sums act blockwise.
Everything else is derived from multiply.  ConeSpec.left_mult_matrix gives
L(x), and quad_rep gives P(x) = 2 L(x)^2 - L(x*x) from it, the formula behind
the seeded automorphisms and the atomicity maximizer; extremal reads the
pure states off eigenvectors of L(x).  None of them builds an n^3 array.

A product handed to the algebra routines is stored as a dense symmetric
tensor (ProductTensor): entry [i, j] holds the coordinates of the product of
the i-th and j-th ambient basis vectors.  builtin_table derives a family's
table from multiply once and shares it; quad_rep evaluates P(x) in it too,
and in any table, the recovered ones included.

The checkers take a space and a product on it, a ProductTensor or a
report.Prerequisite of one (report.as_prerequisite; extremal's checkers take
a map the same way), sample points from the unit ball of the
order-unit norm and report worst-case residuals of the quadratic-
representation axioms and of the norm compatibility laws, each scaled by a
degree-matched factor so that tolerances stay meaningful across dimensions.
A product whose build raised reads Infinity on every property, by the rule
of report.measure, under the same names, trials and tolerances.  Like every
battery, they draw all trials first, one stack per kind of sample, and
evaluate them in blocks of stacks (cones.trial_blocks); a trial builds about
a dozen n x n operators in check_qj_axioms, a small multiple of the budget
the blocks count.

builtin_inverse inverts orthant, Lorentz and PSD points in closed form, under
the condition guard of the LU route that tensor_inverse takes on direct sums
and recovered products.  Maps take whole stacks; the routines that build an
n x n P(x) per point, tensor_inverse and the PSD condition, take them in
chunks of linalg.stack_rows(n) points.  The Lorentz and PSD closed forms and
tensor_inverse first scale each point by a power of two to a largest |entry|
in [0.5, 1) (cones._pow2_scaled), which is exact, so P(x), q(x) and X^-1
stay in range at any scale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cones import (
    ConeSpec,
    OrderUnitSpace,
    _json_numbers,
    _json_size,
    _pow2_scaled,
    _pymax,
    as_vector,
    draw_direction,
    draw_positive,
    fold_max,
    membership_slack,
    order_unit_norm,
    place_positive,
    scale_directions,
    trial_blocks,
)
from .errors import (
    DimensionMismatchError,
    NotInvertibleError,
    SingularMatrixError,
    UnsupportedConeError,
)
from .linalg import _check_condition, solve_linear, stack_rows
from .report import Prerequisite, VerificationReport, as_prerequisite, measure

MAX_DIM = 64


@dataclass(eq=False)
class ProductTensor:
    """Dense symmetric bilinear product with a unit element."""

    n: int
    unit: np.ndarray
    table: np.ndarray  # shape (n, n, n); [i, j] = coordinates of b_i * b_j

    def __post_init__(self):
        if self.n > MAX_DIM:
            raise DimensionMismatchError(f"product tensors are capped at n={MAX_DIM}")
        self.unit = as_vector(self.unit, self.n)
        table = np.asarray(self.table, dtype=float)
        if table.shape != (self.n, self.n, self.n):
            raise DimensionMismatchError(f"table shape {table.shape} != {(self.n,) * 3}")
        if not np.isfinite(table).all():
            raise ValueError("product table entries must be finite")
        self.table = 0.5 * (table + table.transpose(1, 0, 2))

    def multiply(self, x, y) -> np.ndarray:
        return np.matvec(self.left_mult_matrix(x), np.asarray(y, dtype=float))

    def square(self, x) -> np.ndarray:
        return self.multiply(x, x)

    def left_mult_matrix(self, x) -> np.ndarray:
        """Matrix of y -> x*y; a stack of points (k, n) gives one per point."""
        x = np.asarray(x, dtype=float)
        rows = np.vecmat(x, self.table.reshape(self.n, -1))
        return rows.reshape(x.shape[:-1] + (self.n, self.n)).mT

    def unit_law_residual(self) -> float:
        t_unit = self.left_mult_matrix(self.unit)
        return float(np.abs(t_unit - np.eye(self.n)).max())

    def to_json(self) -> dict:
        return {"n": self.n, "unit": self.unit.tolist(), "table": self.table.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "ProductTensor":
        return cls(_json_size(data, "n"), _json_numbers(data["unit"]),
                   _json_numbers(data["table"]))


@dataclass(eq=False)
class AlgebraHandle:
    """A product tensor tied to the order unit space it lives on."""

    space: OrderUnitSpace
    product: ProductTensor


@functools.cache
def builtin_table(cone: ConeSpec) -> np.ndarray:
    """The family's product table, b_i * b_j at [i, j], built once per family from
    its multiply; shared, hence read-only."""
    eye = np.eye(cone.dim)
    table = cone.multiply(eye[:, None], eye[None])
    table.setflags(write=False)
    return table


def builtin_algebra(space: OrderUnitSpace) -> AlgebraHandle:
    """Standard Jordan structure whose cone of squares is the space's cone.

    Requires the space to carry its default order unit, which is the algebra
    unit in every supported family.
    """
    if not np.array_equal(space.unit, space.cone.default_unit()):
        raise UnsupportedConeError("builtin products assume the default order unit")
    tensor = ProductTensor(space.dim, space.unit.copy(), builtin_table(space.cone))
    if tensor.unit_law_residual() > 1e-10:
        raise ArithmeticError("builtin product failed the unit law")
    return AlgebraHandle(space, tensor)


# --------------------------------------------------------------------------
# representations and inversion
# --------------------------------------------------------------------------

def quad_rep(product, x) -> np.ndarray:
    """P(x) = 2 L(x)^2 - L(x*x) at x or each point of a stack (k, n), in a cone family's
    builtin product or a ProductTensor, with L(x) from its left_mult_matrix.  P(x)
    involves no unit, so any order unit the space carries will do."""
    x = np.asarray(x, dtype=float)
    t = product.left_mult_matrix(x)
    return 2.0 * (t @ t) - product.left_mult_matrix(np.matvec(t, x))


def tensor_inverse(tensor: ProductTensor, x) -> np.ndarray:
    """Inverse of x, or of each point of a stack (k, n); raises if any is singular.

    Solves P(x) y = x at x scaled by _pow2_scaled, then scales y back, in chunks
    of stack_rows(n) points, which bounds the P(x) held at once and changes no result.
    """
    x, shift = _pow2_scaled(as_vector(x, tensor.n, stack=True))
    rows = x.reshape(-1, tensor.n)
    size = stack_rows(tensor.n)
    try:
        y = np.concatenate([solve_linear(quad_rep(tensor, r), r)
                            for r in np.split(rows, range(size, len(rows), size))])
    except SingularMatrixError as exc:
        raise NotInvertibleError(f"element is not invertible: {exc}") from exc
    return np.ldexp(y.reshape(x.shape), shift)


def builtin_inverse(alg: AlgebraHandle, x) -> np.ndarray:
    """Inverse of x, or of each point of a stack (k, n), in a builtin algebra.

    A cone family with a closed-form inverse (closed_inverse: the orthant,
    x^-1 = 1/x, the Lorentz cone, x^-1 = (x_0, -t) / (x_0^2 - |t|^2) with
    t the tail of x, and PSD matrices, X^-1) inverts in it and refuses a stack
    as tensor_inverse does, once the 1-norm condition of P(x) at any point
    reaches COND_LIMIT, computing that condition exactly.  Direct sums go
    through tensor_inverse.
    """
    x = as_vector(x, alg.space.dim, stack=True)
    # a point at which q(x) or an entry of x rounds to 0, or whose matrix is
    # singular, reads an infinite or NaN condition, which the guard refuses
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        closed = alg.space.cone.closed_inverse(x)
    if closed is None:
        return tensor_inverse(alg.product, x)
    inv, cond = closed
    try:
        _check_condition(cond)
    except SingularMatrixError as exc:
        raise NotInvertibleError(f"element is not invertible: {exc}") from exc
    return inv


# --------------------------------------------------------------------------
# axiom checkers
# --------------------------------------------------------------------------

def quad_rep_bilinear(tensor: ProductTensor, x, y) -> np.ndarray:
    """Polarization of the quadratic representation."""
    return 0.5 * (quad_rep(tensor, np.asarray(x) + np.asarray(y))
                  - quad_rep(tensor, x) - quad_rep(tensor, y))


def check_qj_axioms(space: OrderUnitSpace, product, trials: int = 100, seed: int = 42,
                    tol: float = 1e-8) -> VerificationReport:
    """Sampled residuals of the three quadratic-representation axioms.

    Residuals are divided by a degree-matched scale: the unit axiom is
    checked once exactly, the triple-evaluation axiom is cubic in x, and the
    composition axiom is quartic in x and quadratic in y.  The trials are
    evaluated as stacks, in the blocks of cones.trial_blocks.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    product = as_prerequisite(product)

    def evaluate(*draws):
        tensor = product()
        x, y, z = scale_directions(space, np.concatenate(draws)).reshape(3, len(draws[0]), -1)
        nx, ny, nz = order_unit_norm(space, np.concatenate([x, y, z])).reshape(3, -1)

        ux = quad_rep(tensor, x)
        uxy = np.matvec(ux, y)
        lhs = np.matvec(ux, np.matvec(quad_rep_bilinear(tensor, y, z), x))
        rhs = np.matvec(quad_rep_bilinear(tensor, uxy, x), z)
        # float_power rounds as a float's ** (C pow); an array's ** does not
        scale2 = np.float_power(1.0 + nx, 3) * (1.0 + ny) * (1.0 + nz)

        op_lhs = quad_rep(tensor, uxy)
        op_rhs = ux @ quad_rep(tensor, y) @ ux
        scale3 = np.float_power(1.0 + nx, 4) * np.float_power(1.0 + ny, 2)
        return np.column_stack([np.abs(lhs - rhs).max(axis=-1) / scale2,
                                np.abs(op_lhs - op_rhs).max(axis=(-2, -1)) / scale3])

    drawn = draw_direction(space, rng, 3 * trials).reshape(3, trials, -1)
    columns = Prerequisite(lambda: trial_blocks(drawn, space.dim, evaluate).T)
    props = [
        measure("qj1_unit", 1, tol, lambda _: float(
            np.abs(quad_rep(product(), space.unit) - np.eye(space.dim)).max())),
        measure("qj2_triple", trials, tol, lambda _: fold_max(columns()[0])),
        measure("qj3_composition", trials, tol, lambda _: fold_max(columns()[1])),
    ]
    return VerificationReport.from_properties(
        f"qj_axioms:{space.cone.label}", seed, props)


def check_jb_norm_conditions(space: OrderUnitSpace, product, trials: int = 100,
                             seed: int = 42, tol: float = 1e-9) -> VerificationReport:
    """Sampled residuals of the norm compatibility laws.

    Checks submultiplicativity, the square-norm identity, monotonicity of
    squares under addition, the operator-norm identity for the quadratic
    representation at the unit, and positivity of the quadratic
    representation on sampled cone elements.  The trials are evaluated as
    stacks, in the blocks of cones.trial_blocks, all norms of a block in one
    call.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    product = as_prerequisite(product)

    def evaluate(x, y, scale, pos):
        tensor = product()
        x, y = scale_directions(space, np.concatenate([x, y])).reshape(2, len(x), -1)
        pos = place_positive(space, pos, scale)
        xsq = tensor.square(x)
        ux = quad_rep(tensor, x)
        nx, ny, n_xy, n_xsq, n_sum, n_unit = order_unit_norm(space, np.concatenate([
            x, y, tensor.multiply(x, y), xsq, xsq + tensor.square(y),
            np.matvec(ux, space.unit)])).reshape(6, -1)
        sq = 1.0 + nx * nx
        slack = membership_slack(space.cone, np.matvec(ux, pos))
        return np.column_stack([(n_xy - nx * ny) / (1.0 + nx * ny), np.abs(n_xsq - nx * nx) / sq,
                                (n_xsq - n_sum) / sq, np.abs(n_unit - nx * nx) / sq,
                                _pymax(0.0, -slack) / sq])

    x, y = draw_direction(space, rng, 2 * trials).reshape(2, trials, -1)
    drawn = x, y, rng.uniform(0.1, 1.0, trials), draw_positive(space, rng, trials)
    columns = Prerequisite(lambda: trial_blocks(drawn, space.dim, evaluate).T)
    names = ("nc1_submultiplicative", "nc2_square_norm", "nc3_square_monotone",
             "quad_rep_norm", "quad_rep_positive")
    props = [measure(name, trials, tol, lambda _, k=k: fold_max(columns()[k]))
             for k, name in enumerate(names)]
    return VerificationReport.from_properties(
        f"jb_norm_conditions:{space.cone.label}", seed, props)
