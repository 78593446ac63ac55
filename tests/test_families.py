"""The cone-family protocol: a family written outside the package runs every suite."""

from dataclasses import dataclass

import numpy as np
import pytest

from symcone import (
    ConeSpec,
    DirectSum,
    Inversion,
    Lorentz,
    NotInteriorError,
    Orthant,
    UnsupportedConeError,
    builtin_algebra,
    check_state_gauge_identity,
    check_strong_atomicity,
    conjugated_inversion,
    cone_to_json,
    default_unit,
    make_space,
    membership_slack,
    random_cone_automorphism,
    sample_interior,
    verify_cone_geometry,
    verify_gauge_reversing,
    verify_reconstruction,
)


@dataclass(frozen=True)
class HalfLine(ConeSpec):
    """The half-line R+ = [0, inf), the cone of squares of the real numbers."""

    @property
    def dim(self) -> int:
        return 1

    @property
    def label(self) -> str:
        return "halfline"

    def to_json(self) -> dict:
        return {"kind": "halfline"}

    def default_unit(self) -> np.ndarray:
        return np.ones(1)

    def slack(self, x):
        return x[..., 0]

    def spectral_bounds(self, z, y):
        if np.any(y[..., 0] <= 0.0):
            raise NotInteriorError("reference point must be interior")
        ratio = z[..., 0] / y[..., 0]
        return ratio, ratio

    def product_table(self) -> np.ndarray:
        return np.ones((1, 1, 1))

    def closed_inverse(self, x):
        # none: inverses go through the product table
        return None

    def pure_states(self, count: int, rng: np.random.Generator) -> list:
        return [(np.ones(1), "point")]

    def extremal(self, covector) -> np.ndarray:
        return np.ones(1)


@pytest.mark.parametrize("cone", (HalfLine(), DirectSum((HalfLine(), Lorentz(3)))), ids=str)
def test_a_family_defined_outside_the_package_passes_every_suite(cone):
    space = make_space(cone)
    inv = Inversion(builtin_algebra(space))
    assert verify_cone_geometry(space, trials=40, seed=1).passed
    assert verify_gauge_reversing(inv, space, space, trials=40, seed=2).passed
    assert verify_reconstruction(inv, space, trials=20, seed=3).passed
    conjugate = conjugated_inversion(space, 4)
    assert verify_reconstruction(conjugate, space, trials=20, seed=5).passed
    g = sample_interior(space, 6, 1.0)
    assert check_state_gauge_identity(inv, space, trials=20, seed=7).passed
    assert check_strong_atomicity(space, inv, g, trials=16, seed=8).passed
    assert cone_to_json(cone)["kind"] in ("halfline", "sum")


def test_a_sum_builds_every_formula_from_its_parts():
    part = Lorentz(3)
    cone = DirectSum((HalfLine(), part))
    assert (cone.dim, cone.label, cone.slices) == (4, "sum(halfline,lorentz3)",
                                                    (slice(0, 1), slice(1, 4)))
    np.testing.assert_array_equal(cone.default_unit(), [1.0, 1.0, 0.0, 0.0])
    assert membership_slack(cone, [2.0, 1.0, 0.5, 0.0]) == 0.5
    assert membership_slack(cone, [-1.0, 1.0, 0.5, 0.0]) == -1.0
    table = cone.product_table()
    assert table[0, 0, 0] == 1.0 and np.array_equal(table[1:, 1:, 1:], part.product_table())
    # P(a) of a sum acts block by block
    mat = random_cone_automorphism(cone, 9)
    assert mat[0, 0] > 0.0 and not mat[0, 1:].any() and not mat[1:, 0].any()


@pytest.mark.parametrize("make", (
    lambda: make_space(object()),
    lambda: make_space(DirectSum((Orthant(2), object()))),
    lambda: default_unit("orthant"),
    lambda: membership_slack(None, [1.0]),
    lambda: cone_to_json(object()),
    lambda: random_cone_automorphism(object(), 0),
), ids=("space", "sum_part", "default_unit", "membership", "json", "automorphism"))
def test_an_unknown_cone_is_refused_at_the_entry(make):
    with pytest.raises(UnsupportedConeError, match="unknown cone kind"):
        make()
