"""Pure states, extreme rays, and their interplay with gauge maps.

Both are read off the builtin product (Faraut and Koranyi, Analysis on
Symmetric Cones, Ch. III).  For a random x the top eigenvalue of L(x) is the
largest spectral value of x, and its eigenvector v spans the primitive
idempotent c = v / <v*v, v> of that value; c generates an extreme ray, with
gauge_M(c, e) = 1 at the unit e, and c / <c, e> is the pure state paired
with it.  One stacked eigensolve gives every c, in every family alike, since
each L(x) of a family's multiply is symmetric in its coordinates.  On a
direct sum L(x) is block diagonal, so each c lies in a single block.  The
maximizer of the atomic decomposition of an interior g at that state is
P(g)c, the same formula in every family.

The checkers in this module test, on sampled points, the identities binding
gauges at extremal vectors to state values of the inverted point, the atomic
decomposition of interior points, and the total ordering of order intervals
below an extremal vector.  The two that read a map take it as the value or a
report.Prerequisite of it, and call it only inside the properties that read
it: by the rule of report.measure those read Infinity if its build or a call
raised, and the others still evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import (
    OrderUnitSpace,
    _bisect,
    as_vector,
    draw_interior,
    draw_stacks,
    draw_uniform,
    fold_max,
    gauge_M,
    membership_slack,
    order_unit_norm,
    place_interior,
    replayed,
)
from .errors import NotInteriorError
from .jordan import quad_rep
from .linalg import sym_eig
from .report import Prerequisite, PropertyResult, VerificationReport, as_prerequisite, measure


@dataclass(eq=False)
class PureState:
    """Extreme normalized positive functional, acting by Euclidean pairing."""

    covector: np.ndarray
    label: str

    def __call__(self, x) -> float:
        return float(_pairing(self.covector, x))


def _pairing(covectors, points) -> np.ndarray:
    """<c, x> over covectors and points broadcast against each other.

    Each pair is one dot of unit-stride rows, so a row of a stack pairs bit for
    bit as the row alone does: BLAS sums a strided dot in another order, and a
    stack of svec images is column-major.
    """
    return np.vecdot(np.ascontiguousarray(covectors, dtype=float),
                     np.ascontiguousarray(points, dtype=float))


@dataclass(eq=False)
class ExtremalVector:
    """Generator of an extreme ray, normalized against the order unit."""

    point: np.ndarray
    label: str


def state_extremal_pairs(space: OrderUnitSpace, count: int,
                         seed: int = 42) -> list[tuple[PureState, ExtremalVector]]:
    """Deterministic pure states, each with the primitive idempotent c it pairs with.

    Draw k is the top eigenvector v of L(x) at the k-th row x of
    standard_normal((count, n)); c = v / <v*v, v>, the state is c / <c, e>
    with e the family's default unit, and gauge_M(c, e) = 1.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    x = np.random.default_rng(seed).standard_normal((count, space.dim))
    v = sym_eig(space.cone.left_mult_matrix(x))[1][..., -1]
    c = v / np.vecdot(np.matvec(space.cone.left_mult_matrix(v), v), v)[:, None]
    states = c / (c @ space.cone.default_unit())[:, None]
    return [(PureState(s, f"primitive:{k}"), ExtremalVector(p, f"primitive:{k}"))
            for k, (s, p) in enumerate(zip(states, c))]


def pure_states(space: OrderUnitSpace, count: int, seed: int = 42) -> list[PureState]:
    """The states of state_extremal_pairs, each normalized at the family's default unit."""
    return [state for state, _ in state_extremal_pairs(space, count, seed)]


def extremal_for_state(space: OrderUnitSpace, state: PureState) -> ExtremalVector:
    """The normalized extreme-ray generator paired with a pure state.

    It is the state's covector scaled to gauge_M(p, e) = 1 at the family's
    default unit e.
    """
    scale = gauge_M(space, state.covector, space.cone.default_unit())
    return ExtremalVector(state.covector / scale, state.label)


# --------------------------------------------------------------------------
# checkers
# --------------------------------------------------------------------------

def check_state_gauge_identity(map_spec, space: OrderUnitSpace, trials: int = 50,
                               seed: int = 42, tol: float = 1e-8) -> VerificationReport:
    """Gauge of an extremal vector against the state value of the image.

    For each sampled interior g and each of 16 generated state/extremal
    pairs the upper gauge of the extremal relative to g must equal the state
    evaluated at the image of g.  The map must fix the order unit (use the
    recovered inversion for maps that do not).  The gauges and the map go over the stack
    of all trials' g, replayed trial by trial if it raises.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    map_spec = as_prerequisite(map_spec)
    rng = np.random.default_rng(seed)
    unit = np.asarray(space.unit)
    pairs = state_extremal_pairs(space, 16, seed)

    points = np.array([extremal.point for _, extremal in pairs])
    covectors = np.array([state.covector for state, _ in pairs])
    g = place_interior(space, np.array([draw_interior(space, rng, 1.0) for _ in range(trials)]))

    def identity(r):
        # rows (trial, pair) in the order a trial loop takes them
        k = len(g[r])
        lhs = gauge_M(space, np.tile(points, (k, 1)), np.repeat(g[r], len(points), axis=0))
        rhs = _pairing(covectors, map_spec().apply(g[r])[:, None])
        return np.abs(lhs.reshape(k, -1) - rhs) / (1.0 + np.abs(rhs))

    props = [
        measure("map_fixes_unit", 1, 1e-9,
                lambda _: order_unit_norm(space, map_spec().apply(unit) - unit)),
        measure("extremal_normalization", len(pairs), 1e-10,
                lambda _: fold_max(np.abs(gauge_M(space, points, unit) - 1.0))),
        measure("state_gauge_identity", trials * len(pairs), tol, lambda _: fold_max(
            replayed(lambda: identity(slice(None)), lambda i: identity(slice(i, i + 1)),
                     trials))),
    ]
    return VerificationReport.from_properties(
        f"state_gauge:{space.cone.label}", seed, props)


def check_strong_atomicity(space: OrderUnitSpace, map_spec, g, trials: int = 64,
                           seed: int = 42, tol: float = 1e-7) -> VerificationReport:
    """Atomic reconstruction of an interior point from the extremals below it.

    At each sampled pure state, multiples of sampled extremal vectors never
    exceed the point's state value, and the known maximizing extremal attains
    it.  The supplied map, when it fixes the unit, supplies an independent
    route to the gauge values, which is cross-checked as well.
    """
    g = as_vector(g, space.dim)
    if membership_slack(space.cone, g) <= 0.0:
        raise NotInteriorError("atomicity check needs an interior point")
    map_spec = as_prerequisite(map_spec)
    unit = np.asarray(space.unit)

    pairs = state_extremal_pairs(space, min(trials, 16), seed)
    sampled = np.array([ext.point for _, ext in state_extremal_pairs(space, trials, seed + 1)])
    moves_unit = Prerequisite(
        lambda: order_unit_norm(space, map_spec().apply(unit) - unit) > 1e-9)

    # each state's value at the points below, and their gauges against g, one
    # stack each: the sampled extremals (shared by all states), the maximizer
    # of each state, and the extremal paired with it
    states = np.array([state.covector for state, _ in pairs])
    paired = np.array([ext.point for _, ext in pairs])
    targets = _pairing(states, g)
    scale = 1.0 + np.abs(targets)

    def upper(_):
        # sampled extremals must stay below the state value
        vals = _pairing(states[:, None, :], sampled) / gauge_M(space, sampled, g)
        return fold_max((vals - targets[:, None]) / scale[:, None])

    def attain(_):
        # the maximizer at a state with extremal c is P(g)c, scaled to gauge 1
        # at the unit, and must reach the state value
        best = np.matvec(quad_rep(space.cone, g), paired)
        best /= gauge_M(space, best, unit)[:, None]
        attained = _pairing(states, best) / gauge_M(space, best, g)
        return fold_max(np.abs(attained - targets) / scale)

    def cross(_):
        # the map-based route agrees with the gauge route
        moves_unit()  # raises again what building the map or map(unit) raised
        state_fg = _pairing(states, map_spec().apply(g))
        return fold_max(np.abs(gauge_M(space, paired, g) - state_fg)
                        / (1.0 + np.abs(state_fg)))

    props = [
        measure("sampled_inequality", len(pairs) * len(sampled), 1e-9, upper),
        measure("maximizer_attains", len(pairs), tol, attain),
    ]
    # listed unless the map is known to move the unit; if building the map or
    # applying it to the unit raised, the route reads that error
    if not moves_unit.value:
        props.append(measure("gauge_vs_map_route", len(pairs), max(tol, 1e-8), cross))
    return VerificationReport.from_properties(
        f"strong_atomicity:{space.cone.label}", seed, props)


def check_order_interval_segment(space: OrderUnitSpace, x, p: ExtremalVector,
                                 trials: int = 100, seed: int = 42,
                                 tol: float = 1e-8) -> VerificationReport:
    """The order interval from x to x plus an extremal vector is a segment.

    Points are drawn by perturbing segment points and projecting back into
    the interval with a membership bisection; every projected point must be
    within tolerance of the segment through x with direction p.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = as_vector(x, space.dim)
    if membership_slack(space.cone, x) <= 0.0:
        raise NotInteriorError("interval base point must be interior")
    rng = np.random.default_rng(seed)
    direction = np.asarray(p.point, dtype=float)
    top = x + direction
    norm_p2 = float(direction @ direction)

    eps = -1e-12 * (1.0 + float(np.abs(x).max() + np.abs(direction).max()))

    def in_interval(z: np.ndarray) -> np.ndarray:
        slack = membership_slack(space.cone, np.concatenate([z - x, top - z]))
        return (slack[:len(z)] >= eps) & (slack[len(z):] >= eps)

    t, noise = draw_stacks(
        trials, lambda: (draw_uniform(rng, 0.0, 1.0), rng.standard_normal(space.dim)))
    base = x + t[:, None] * direction
    noise *= (0.2 / np.maximum(order_unit_norm(space, noise), 1e-300))[:, None]
    # the largest fraction of each noise keeping its segment point in the
    # interval: all of it, or a bisection of the rows in lockstep
    frac = np.where(in_interval(base + noise), 1.0, 0.0)
    rows = np.flatnonzero(frac == 0.0)
    if rows.size:
        frac[rows] = _bisect(
            lambda mid, r: ~in_interval(base[rows[r]] + mid[:, None] * noise[rows[r]]),
            np.zeros(rows.size), np.ones(rows.size), iters=60)[0]
    z = base + frac[:, None] * noise
    t_fit = np.vecdot(z - x, direction) / norm_p2
    off = z - (x + t_fit[:, None] * direction)
    worst = fold_max(np.sqrt(np.vecdot(off, off)))

    props = [PropertyResult.from_residual("interval_is_segment", trials, worst, tol)]
    return VerificationReport.from_properties(
        f"order_interval:{space.cone.label}", seed, props)
