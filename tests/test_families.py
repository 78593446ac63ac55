"""The cone-family protocol: a family written outside the package runs every suite."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcone import (
    ConeSpec,
    DirectSum,
    Inversion,
    Lorentz,
    NotInteriorError,
    Orthant,
    SymPSD,
    UnsupportedConeError,
    builtin_algebra,
    check_state_gauge_identity,
    check_strong_atomicity,
    conjugated_inversion,
    cone_to_json,
    default_unit,
    gauge_M,
    make_space,
    membership_slack,
    random_cone_automorphism,
    sample_interior,
    state_extremal_pairs,
    verify_cone_geometry,
    verify_gauge_reversing,
    verify_reconstruction,
)
from symcone.cones import sample_positive_rng, smat, svec
from symcone.jordan import builtin_table


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

    def multiply(self, x, y):
        return x * y

    def closed_inverse(self, x):
        # none: inverses go through the product table
        return None


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
    table = builtin_table(cone)
    assert table[0, 0, 0] == 1.0 and np.array_equal(table[1:, 1:, 1:], builtin_table(part))
    assert not table[0, 1:].any() and not table[1:, 0].any()
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


# ------------------------------------------- what a family gets from its product
# A family states its product as one formula, multiply(x, y); the table, L(x)
# and P(x) are derived from it.  It states no pure states and no extreme rays:
# they are the primitive idempotents read off eigenvectors of L(x), which needs
# every L(x) of multiply to be symmetric in the family's coordinates.

PROTOCOL_CONES = (Orthant(6), Lorentz(20), SymPSD(6),
                  DirectSum((SymPSD(2), Lorentz(3), Orthant(2))), HalfLine())


@pytest.mark.parametrize("cone", (*PROTOCOL_CONES, Lorentz(2), SymPSD(1), SymPSD(3),
                                  DirectSum((HalfLine(), Lorentz(3)))), ids=str)
def test_every_left_multiplication_is_symmetric(cone):
    x = np.random.default_rng(11).standard_normal((8, cone.dim))
    # L(x)[l, j], coordinate l of x * b_j, at each row x
    mats = cone.multiply(x[:, None, :], np.eye(cone.dim)).mT
    assert mats.shape == (8, cone.dim, cone.dim)
    scale = np.abs(mats).max(axis=(-2, -1), keepdims=True)
    assert (np.abs(mats - mats.mT) <= 1e-13 * scale).all()


@pytest.mark.parametrize("cone", PROTOCOL_CONES, ids=str)
@settings(max_examples=5)
@given(seed=st.integers(0, 10**6))
def test_states_and_extremals_come_from_the_product(cone, seed):
    space = make_space(cone)
    alg = builtin_algebra(space)
    unit = space.unit
    blocks = cone.slices if isinstance(cone, DirectSum) else (slice(None),)
    pairs = state_extremal_pairs(space, 6, seed)
    assert len(pairs) == 6
    positive = np.array([sample_positive_rng(space, np.random.default_rng(seed + k), 1.0)
                         for k in range(10)])
    for state, ext in pairs:
        c = ext.point
        assert np.abs(alg.product.square(c) - c).max() <= 1e-12
        # nonzero on exactly one block, and exactly zero on every other
        assert sum(bool(np.any(c[s] != 0.0)) for s in blocks) == 1
        assert gauge_M(space, c, unit) == pytest.approx(1.0, abs=1e-12)
        assert state(unit) == pytest.approx(1.0, abs=1e-12)
        assert (np.array([state(x) for x in positive]) >= -1e-12).all()


def _loop_table(cone):
    """The product table as the nested loops of the former per-family builders wrote it."""
    if isinstance(cone, DirectSum):
        table = np.zeros((cone.dim,) * 3)
        for p, s in zip(cone.parts, cone.slices):
            table[s, s, s] = _loop_table(p)
        return table
    n = cone.dim
    table = np.zeros((n, n, n))
    if isinstance(cone, Orthant):
        for i in range(n):
            table[i, i, i] = 1.0
    elif isinstance(cone, Lorentz):
        for i in range(n):
            for j in range(n):
                prod = np.zeros(n)
                prod[0] = 1.0 if i == j else 0.0
                if i == 0 and j > 0:
                    prod[j] = 1.0
                elif j == 0 and i > 0:
                    prod[i] = 1.0
                table[i, j] = prod
    else:
        basis = [smat(row) for row in np.eye(n)]
        for i in range(n):
            for j in range(n):
                table[i, j] = svec(0.5 * (basis[i] @ basis[j] + basis[j] @ basis[i]))
    return table


@pytest.mark.parametrize("cone", (
    Orthant(1), Orthant(6), Lorentz(2), Lorentz(5), Lorentz(20), Lorentz(64),
    SymPSD(1), SymPSD(2), SymPSD(3), SymPSD(6), SymPSD(10),
    DirectSum((SymPSD(2), Lorentz(3), Orthant(2))),
    DirectSum((SymPSD(3), Lorentz(4), Orthant(2)))), ids=str)
def test_the_table_derived_from_multiply_is_the_loop_built_one(cone):
    # bit for bit, sign bits included
    assert builtin_table(cone).tobytes() == _loop_table(cone).tobytes()


def test_large_cones_build_automorphisms_and_maximizers_without_a_table():
    cone = Lorentz(150)
    space = make_space(cone)

    class ClosedInverse:
        def apply(self, x):
            return cone.closed_inverse(np.asarray(x, dtype=float))[0]

    before = builtin_table.cache_info()
    mat = random_cone_automorphism(cone, 3)
    g = sample_interior(space, 6, 1.0)
    report = check_strong_atomicity(space, ClosedInverse(), g, trials=16, seed=8)
    assert builtin_table.cache_info() == before
    assert mat.shape == (150, 150) and np.array_equal(mat, mat.T)
    assert report.passed, [(p.name, p.max_residual) for p in report.failing()]
    assert "maximizer_attains" in {p.name for p in report.properties}
