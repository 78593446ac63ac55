"""Composable bijections of open cones with exact forward and inverse routes.

A map spec is any object exposing apply / apply_inverse.  Both take a point
(n,) or a stack of points (k, n) and return the same shape, row i of the
result being the image of row i; the reconstruction pipeline sends whole
direction and probe sets through one call, so duck-typed maps must accept
stacks of any length, and one building an n x n operator per point bounds its
own memory, as jordan.tensor_inverse does.  The concrete specs here are:
algebra inversion, linear pre/post conjugation of an inner map, composition,
inversion of a recovered product tensor, and a componentwise power map kept
as a deliberately-wrong control for the checkers.  An empty composition acts
as the identity map.

The reversing and preserving suites are one body.  It samples interior
points and measures, property by property, whether a map reverses or
preserves gauges: gauge transformation law, homogeneity degree, order
behaviour on comparable pairs, Thompson-metric isometry, and for the
reversing case convexity and the local Lipschitz bound.  Every trial's
samples are drawn first, trial by trial; the map then sends the x and y of
all trials as one stack, and each property is evaluated once over the stack
of all trials.  A property that raises reads Infinity, by the rule of
report.measure, with the exception of the first failing trial, found by
replaying the stack one trial at a time.  The images f(x) and f(y), and the
reversing suite's gauge factor kappa = gauge_M(f(e), e), are prerequisites
built once: images that raised pin every property, and a kappa that raised
pins the Lipschitz bound, each with the exception of its build.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import (
    ConeSpec,
    OrderUnitSpace,
    _pymax,
    as_vector,
    cone_from_json,
    cone_to_json,
    draw_direction,
    draw_interior,
    draw_positive,
    draw_stacks,
    draw_uniform,
    fold_max,
    gauge_M,
    make_space,
    membership_slack,
    order_unit_norm,
    place_interior,
    place_positive,
    replayed,
    scale_directions,
    thompson_distance,
)
from .errors import NotInteriorError, UnsupportedConeError
from .jordan import (
    AlgebraHandle,
    ProductTensor,
    builtin_algebra,
    builtin_inverse,
    quad_rep,
    tensor_inverse,
)
from .linalg import mat_inverse
from .report import Prerequisite, VerificationReport, measure


# --------------------------------------------------------------------------
# map specs
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Inversion:
    """Jordan inversion of a builtin algebra; an involution fixing the unit."""

    algebra: AlgebraHandle

    def apply(self, x) -> np.ndarray:
        x = as_vector(x, self.algebra.space.dim, stack=True)
        if np.any(membership_slack(self.algebra.space.cone, x) <= 0.0):
            raise NotInteriorError("inversion needs a strictly interior point")
        return builtin_inverse(self.algebra, x)

    def apply_inverse(self, y) -> np.ndarray:
        return self.apply(y)


@dataclass(eq=False)
class Recovered:
    """Inversion in a reconstructed product tensor.

    Treated as involutive; if the tensor is not a genuine Jordan product the
    round-trip residual check in the verifiers exposes it.
    """

    product: ProductTensor

    def apply(self, x) -> np.ndarray:
        return tensor_inverse(self.product, x)

    def apply_inverse(self, y) -> np.ndarray:
        return self.apply(y)


@dataclass(eq=False)
class LinearConjugate:
    """post o inner o pre with linear cone isomorphisms on both sides.

    pre=None stands for the identity and costs no multiplication.
    """

    pre: np.ndarray | None
    inner: object
    post: np.ndarray
    _pre_inv: np.ndarray | None = field(init=False, repr=False)
    _post_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.post = np.asarray(self.post, dtype=float)
        self._post_inv = mat_inverse(self.post)
        self._pre_inv = None
        if self.pre is not None:
            self.pre = np.asarray(self.pre, dtype=float)
            self._pre_inv = mat_inverse(self.pre)

    def apply(self, x) -> np.ndarray:
        if self.pre is not None:
            x = np.matvec(self.pre, x)
        return np.matvec(self.post, self.inner.apply(x))

    def apply_inverse(self, y) -> np.ndarray:
        x = self.inner.apply_inverse(np.matvec(self._post_inv, y))
        return x if self._pre_inv is None else np.matvec(self._pre_inv, x)


@dataclass(eq=False)
class Compose:
    """Left-to-right composition; empty composition is the identity map."""

    parts: tuple

    def __post_init__(self):
        self.parts = tuple(self.parts)

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        for part in self.parts:
            x = part.apply(x)
        return x

    def apply_inverse(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        for part in reversed(self.parts):
            y = part.apply_inverse(y)
        return y


@dataclass(eq=False)
class ComponentwisePower:
    """x -> x**p on the open orthant.

    Order-reversing for negative p but homogeneous of degree p, so for
    p != -1 it fails the reversing checker; kept as a negative control.
    """

    power: float

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise NotInteriorError("power map needs strictly positive coordinates")
        return x ** self.power

    def apply_inverse(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise NotInteriorError("power map needs strictly positive coordinates")
        return y ** (1.0 / self.power)


def identity_map() -> Compose:
    return Compose(())


# --------------------------------------------------------------------------
# seeded cone automorphisms, used to wrap inversions so they move the unit
# --------------------------------------------------------------------------

def random_cone_automorphism(cone: ConeSpec, seed: int) -> np.ndarray:
    """A deterministic linear bijection of the cone onto itself: P(a) in its builtin product.

    a = e + u, with e the default unit and u one draw_direction sample of
    order-unit norm at most 1 - 2^-1/2, so the spectrum of a lies in
    [2^-1/2, 2^1/2] and the 2-norm condition of P(a), the squared ratio of
    its extremes, is at most 4.
    """
    space = make_space(cone)
    draw = draw_direction(space, np.random.default_rng(seed), 1.0 - math.sqrt(0.5))
    return quad_rep(space.cone, space.unit + scale_directions(space, draw[None])[0])


def conjugated_inversion(space: OrderUnitSpace, seed: int) -> LinearConjugate:
    """Inversion wrapped in automorphisms, so it no longer fixes the unit."""
    pre = random_cone_automorphism(space.cone, seed)
    post = random_cone_automorphism(space.cone, seed + 1)
    return LinearConjugate(pre, Inversion(builtin_algebra(space)), post)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

_HOMOGENEITY_SCALES = (0.5, 2.0, 7.0)


def _verify_gauge_map(map_spec, space_src: OrderUnitSpace, space_dst: OrderUnitSpace,
                      trials: int, seed: int, tol: float, reversing: bool) -> VerificationReport:
    """The gauge-reversing suite, or with reversing=False the preserving one."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    radius = 0.6
    lam = math.exp(radius)
    if reversing:
        # maps that move the unit push the image ball up by this gauge factor
        kappa = Prerequisite(lambda: gauge_M(
            space_dst, map_spec.apply(np.asarray(space_src.unit)), np.asarray(space_dst.unit)))

    def draw():  # x and y, the order test's scale and cone element, the convexity weight
        return (np.array([draw_interior(space_src, rng, radius) for _ in range(2)]),
                draw_uniform(rng, 0.1, 0.8), draw_positive(space_src, rng),
                draw_uniform(rng, 0.0, 1.0) if reversing else 0.0)

    xy, scale, pos, t = draw_stacks(trials, draw)
    # rows x_0, y_0, x_1, y_1, ...: the order in which a trial loop maps them
    xy = place_interior(space_src, xy.reshape(2 * trials, -1))
    x, y = xy[0::2], xy[1::2]
    p = place_positive(space_src, pos, scale)
    # the images f(x) and f(y), which every property reads
    images = Prerequisite(lambda: replayed(lambda: map_spec.apply(xy),
                                           lambda i: map_spec.apply(xy[i:i + 1]), 2 * trials))

    # a map of degree -1 divides its image by a scale, one of degree +1 multiplies
    scaled = np.divide if reversing else np.multiply

    def round_trip(r, fx, fy):
        return order_unit_norm(space_src, map_spec.apply_inverse(fx[r]) - x[r])

    def gauge(r, fx, fy):
        m_ref = gauge_M(space_src, y[r], x[r]) if reversing else gauge_M(space_src, x[r], y[r])
        return abs(gauge_M(space_dst, fx[r], fy[r]) - m_ref) / m_ref

    def homogeneity(r, fx, fy):
        # rows (trial, scale) in the order a trial loop takes them
        s = np.tile(_HOMOGENEITY_SCALES, len(x[r]))[:, None]
        x_s, fx_s = (np.repeat(v[r], len(_HOMOGENEITY_SCALES), axis=0) for v in (x, fx))
        dev = order_unit_norm(space_dst, map_spec.apply(s * x_s) - scaled(fx_s, s))
        return dev / (1.0 + scaled(order_unit_norm(space_dst, fx_s), s[:, 0]))

    def order(r, fx, fy):
        above = map_spec.apply(x[r] + p[r])
        slack = membership_slack(space_dst.cone, fx[r] - above if reversing else above - fx[r])
        return _pymax(0.0, -slack)

    def isometry(r, fx, fy):
        return abs(thompson_distance(space_dst, fx[r], fy[r])
                   - thompson_distance(space_src, x[r], y[r]))

    def convexity(r, fx, fy):
        w = t[r][:, None]
        mix = map_spec.apply((1.0 - w) * x[r] + w * y[r])
        return _pymax(0.0, -membership_slack(space_dst.cone, (1.0 - w) * fx[r] + w * fy[r] - mix))

    def lipschitz(r, fx, fy):
        # sampling radius keeps x, y >= lam^{-1} * unit
        bound = kappa() * lam * lam
        return order_unit_norm(space_dst, fx[r] - fy[r]) \
            - bound * order_unit_norm(space_src, x[r] - y[r])

    if reversing:
        checks = {"round_trip": round_trip, "gauge_reversal": gauge,
                  "homogeneity_deg_minus_one": homogeneity, "order_reversal": order,
                  "thompson_isometry": isometry, "convexity": convexity,
                  "metric_ball_lipschitz": lipschitz}
    else:
        checks = {"round_trip": round_trip, "gauge_preservation": gauge,
                  "homogeneity_deg_plus_one": homogeneity, "order_preservation": order,
                  "thompson_isometry": isometry}

    def over_trials(check, count):
        fxy = images()
        fx, fy = fxy[0::2], fxy[1::2]
        return fold_max(replayed(lambda: check(slice(None), fx, fy),
                                 lambda i: check(slice(i, i + 1), fx, fy), count))

    props = [measure(name, trials, tol, functools.partial(over_trials, check))
             for name, check in checks.items()]
    suite = "gauge_reversing" if reversing else "gauge_preserving"
    return VerificationReport.from_properties(f"{suite}:{space_src.cone.label}", seed, props)


def verify_gauge_reversing(map_spec, space_src: OrderUnitSpace,
                           space_dst: OrderUnitSpace, trials: int = 200,
                           seed: int = 42, tol: float = 1e-9) -> VerificationReport:
    """Property suite certifying a map as a gauge-reversing bijection.

    Checks on sampled interior pairs: the inverse really inverts, the upper
    gauge transforms with swapped arguments, homogeneity of degree -1, order
    reversal on comparable pairs, Thompson-metric isometry, convexity, and
    the square-Lipschitz bound on a metric ball.
    """
    return _verify_gauge_map(map_spec, space_src, space_dst, trials, seed, tol, True)


def verify_gauge_preserving(map_spec, space_src: OrderUnitSpace,
                            space_dst: OrderUnitSpace, trials: int = 200,
                            seed: int = 42, tol: float = 1e-9) -> VerificationReport:
    """Mirror of the reversing suite: same-argument gauge law, degree +1
    homogeneity, and order preservation."""
    return _verify_gauge_map(map_spec, space_src, space_dst, trials, seed, tol, False)


# --------------------------------------------------------------------------
# JSON codec
# --------------------------------------------------------------------------

def map_to_json(map_spec) -> dict:
    if isinstance(map_spec, Inversion):
        return {"kind": "inversion", "cone": cone_to_json(map_spec.algebra.space.cone)}
    if isinstance(map_spec, Recovered):
        return {"kind": "recovered", "product": map_spec.product.to_json()}
    if isinstance(map_spec, LinearConjugate):
        return {
            "kind": "conjugate",
            "pre": None if map_spec.pre is None else map_spec.pre.tolist(),
            "inner": map_to_json(map_spec.inner),
            "post": map_spec.post.tolist(),
        }
    if isinstance(map_spec, Compose):
        return {"kind": "compose", "parts": [map_to_json(p) for p in map_spec.parts]}
    if isinstance(map_spec, ComponentwisePower):
        return {"kind": "cwpower", "power": map_spec.power}
    raise TypeError(f"cannot serialize map {type(map_spec)!r}")


def map_from_json(data: dict):
    kind = data.get("kind")
    if kind == "inversion":
        return Inversion(builtin_algebra(make_space(cone_from_json(data["cone"]))))
    if kind == "recovered":
        return Recovered(ProductTensor.from_json(data["product"]))
    if kind == "conjugate":
        return LinearConjugate(data["pre"], map_from_json(data["inner"]), data["post"])
    if kind == "compose":
        return Compose(tuple(map_from_json(p) for p in data["parts"]))
    if kind == "cwpower":
        return ComponentwisePower(float(data["power"]))
    raise UnsupportedConeError(f"unknown map kind {kind!r}")
