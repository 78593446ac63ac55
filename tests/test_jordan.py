"""Builtin algebra structures and the axiom checkers."""

import math
import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcone import (
    AlgebraHandle,
    DirectSum,
    Inversion,
    Lorentz,
    NotInteriorError,
    NotInvertibleError,
    Orthant,
    ProductTensor,
    SymPSD,
    UnsupportedConeError,
    builtin_algebra,
    check_jb_norm_conditions,
    check_qj_axioms,
    cone_contains,
    make_space,
    membership_slack,
    order_unit_norm,
    svec,
)
from symcone.cones import sample_interior_rng, sample_positive_rng
from symcone import cones, jordan, linalg
from symcone.jordan import builtin_inverse, quad_rep, quad_rep_bilinear, tensor_inverse
from symcone.report import PropertyResult, VerificationReport


def all_algebras():
    cones = [Orthant(3), Lorentz(4), SymPSD(2), DirectSum((Orthant(2), SymPSD(2)))]
    return [builtin_algebra(make_space(c)) for c in cones]


def test_product_examples():
    o2 = builtin_algebra(make_space(Orthant(2)))
    np.testing.assert_allclose(o2.product.multiply([2.0, 1.0], [1.0, 3.0]), [2.0, 3.0])
    l3 = builtin_algebra(make_space(Lorentz(3)))
    np.testing.assert_allclose(l3.product.multiply([1.0, 0.0, 0.0], [2.0, 1.0, 0.0]),
                               [2.0, 1.0, 0.0])
    p2 = builtin_algebra(make_space(SymPSD(2)))
    e11 = svec(np.diag([1.0, 0.0]))
    e22 = svec(np.diag([0.0, 1.0]))
    np.testing.assert_allclose(p2.product.multiply(e11, e22), np.zeros(3), atol=1e-15)


def test_left_mult_matrix_examples():
    o2 = builtin_algebra(make_space(Orthant(2))).product
    np.testing.assert_allclose(o2.left_mult_matrix(o2.unit), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(o2.left_mult_matrix([2.0, 3.0]), np.diag([2.0, 3.0]))
    l3 = builtin_algebra(make_space(Lorentz(3))).product
    np.testing.assert_allclose(l3.left_mult_matrix([0.0, 1.0, 0.0]) @ np.array([1.0, 0.0, 0.0]),
                               [0.0, 1.0, 0.0])


def test_representations_are_symmetric_matrices():
    rng = np.random.default_rng(0)
    for alg in all_algebras():
        for _ in range(10):
            x = rng.standard_normal(alg.space.dim)
            t = alg.product.left_mult_matrix(x)
            u = quad_rep(alg.product, x)
            assert np.abs(t - t.T).max() < 1e-12
            assert np.abs(u - u.T).max() < 1e-12


def test_quad_rep_examples():
    o2 = builtin_algebra(make_space(Orthant(2)))
    np.testing.assert_allclose(quad_rep(o2.product, o2.space.unit), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(quad_rep(o2.product, [2.0, 3.0]), np.diag([4.0, 9.0]))
    p2 = builtin_algebra(make_space(SymPSD(2)))
    x = svec(np.diag([2.0, 1.0]))
    offdiag = svec(np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0))
    np.testing.assert_allclose(quad_rep(p2.product, x) @ offdiag, 2.0 * offdiag, atol=1e-14)


@pytest.mark.parametrize("cone, exact", (
    (Orthant(1), True), (Orthant(6), True), (Lorentz(2), True), (Lorentz(5), True),
    (Lorentz(20), True), (SymPSD(2), False), (SymPSD(3), False), (SymPSD(6), False),
    (DirectSum((SymPSD(2), Lorentz(3), Orthant(2))), False),
    (DirectSum((SymPSD(3), Lorentz(4), Orthant(2))), False)), ids=str)
def test_the_familys_quad_rep_is_the_tables(cone, exact):
    # P(x) from multiply and from the dense table: bit for bit where every
    # product is exact, within rounding (Frobenius norm) where the matrix
    # products round
    x = 4.0 * np.random.default_rng(5).standard_normal((2, 10, cone.dim))
    from_multiply = quad_rep(cone, x)
    from_table = quad_rep(builtin_algebra(make_space(cone)).product, x)
    assert from_multiply.shape == (2, 10, cone.dim, cone.dim)
    if exact:
        assert np.array_equal(from_multiply, from_table)
    else:
        gap = np.linalg.norm(from_multiply - from_table, axis=(-2, -1))
        assert (gap <= 1e-15 * np.linalg.norm(from_table, axis=(-2, -1))).all()


def test_power_associativity_witness():
    rng = np.random.default_rng(1)
    for alg in all_algebras():
        for _ in range(20):
            x = rng.standard_normal(alg.space.dim)
            lhs = quad_rep(alg.product, x) @ np.asarray(alg.space.unit)
            assert np.abs(lhs - alg.product.square(x)).max() <= 1e-10 * (1 + x @ x)


def test_jordan_identity_and_operator_commutation():
    rng = np.random.default_rng(2)
    for alg in all_algebras():
        for _ in range(20):
            x = rng.standard_normal(alg.space.dim)
            y = rng.standard_normal(alg.space.dim)
            xsq = alg.product.square(x)
            lhs = alg.product.multiply(x, alg.product.multiply(y, xsq))
            rhs = alg.product.multiply(alg.product.multiply(x, y), xsq)
            assert np.abs(lhs - rhs).max() <= 1e-9 * (1 + np.abs(x).max()) ** 3
            tx = alg.product.left_mult_matrix(x)
            txsq = alg.product.left_mult_matrix(xsq)
            assert np.abs(tx @ txsq - txsq @ tx).max() <= 1e-9 * (1 + np.abs(x).max()) ** 3


def test_cone_of_squares():
    rng = np.random.default_rng(3)
    for alg in all_algebras():
        for _ in range(25):
            x = rng.standard_normal(alg.space.dim)
            assert cone_contains(alg.space.cone, alg.product.square(x), -1e-10)


def test_inverse_examples():
    o2 = builtin_algebra(make_space(Orthant(2)))
    np.testing.assert_allclose(tensor_inverse(o2.product, o2.space.unit), o2.space.unit)
    np.testing.assert_allclose(tensor_inverse(o2.product, [2.0, 4.0]), [0.5, 0.25])
    l3 = builtin_algebra(make_space(Lorentz(3)))
    np.testing.assert_allclose(tensor_inverse(l3.product, [2.0, 1.0, 0.0]),
                               np.array([2.0, -1.0, 0.0]) / 3.0, atol=1e-14)
    # the closed forms
    assert np.array_equal(builtin_inverse(o2, [2.0, 4.0]), [0.5, 0.25])
    np.testing.assert_allclose(builtin_inverse(l3, [2.0, 1.0, 0.0]),
                               np.array([2.0, -1.0, 0.0]) / 3.0, rtol=1e-15)
    x = np.array([2.0, 1.0, -0.5])
    assert cones._lorentz_norm1(x, np.float64(2.75)) == linalg._norm1(quad_rep(l3.product, x))
    # off the cone as well: invertible points invert, and near-singular ones are refused
    for alg, y in ((o2, [-3.0, 1.0]), (l3, [1.0, 2.0, 0.5])):
        np.testing.assert_allclose(builtin_inverse(alg, y), tensor_inverse(alg.product, y),
                                   rtol=1e-14)
    for alg, y in ((o2, [-1e7, 1.0]), (l3, [1.0, 1.0 + 1e-8, 0.0])):
        for route in (lambda: builtin_inverse(alg, y), lambda: tensor_inverse(alg.product, y)):
            with pytest.raises(NotInvertibleError):
                route()


def test_inverse_contracts():
    rng = np.random.default_rng(4)
    for alg in all_algebras():
        space = alg.space
        for _ in range(15):
            x = sample_interior_rng(space, rng, 1.0)
            xi = tensor_inverse(alg.product, x)
            assert order_unit_norm(space, alg.product.multiply(x, xi) - space.unit) <= 1e-9
            assert order_unit_norm(space, tensor_inverse(alg.product, xi) - x) <= 1e-8


def test_inverse_singular_raises():
    o2 = builtin_algebra(make_space(Orthant(2)))
    with pytest.raises(NotInvertibleError):
        tensor_inverse(o2.product, [1.0, 0.0])


def test_qj_axioms_pass_on_builtins():
    report = check_qj_axioms(builtin_algebra(make_space(Orthant(4))), 100, 7, 1e-10)
    assert report.passed
    report = check_qj_axioms(builtin_algebra(make_space(SymPSD(3))), 100, 7, 1e-8)
    assert report.passed
    report = check_qj_axioms(builtin_algebra(make_space(Lorentz(5))), 100, 7, 1e-8)
    assert report.passed


def test_perturbed_product_fails_qj3():
    truth = builtin_algebra(make_space(Orthant(4)))
    table = truth.product.table.copy()
    table[1, 2, 3] += 0.1
    table[2, 1, 3] += 0.1
    bad = ProductTensor(4, truth.product.unit.copy(), table)
    report = check_qj_axioms(AlgebraHandle(truth.space, bad), 150, 7, 1e-3)
    assert not report.passed
    by_name = {p.name: p for p in report.properties}
    assert not by_name["qj3_composition"].passed


def test_jb_norm_conditions_pass_on_builtins():
    report = check_jb_norm_conditions(builtin_algebra(make_space(Lorentz(5))), 100, 7, 1e-9)
    assert report.passed
    alg = builtin_algebra(make_space(Orthant(3)))
    v = np.asarray(alg.space.unit)
    assert order_unit_norm(alg.space, alg.product.square(v)) == pytest.approx(1.0)


def test_doubled_product_fails_square_norm_law():
    truth = builtin_algebra(make_space(Orthant(3)))
    doubled = ProductTensor(3, truth.product.unit.copy(), 2.0 * truth.product.table)
    report = check_jb_norm_conditions(AlgebraHandle(truth.space, doubled), 50, 7, 1e-3)
    by_name = {p.name: p for p in report.properties}
    assert not by_name["nc2_square_norm"].passed


def test_tensor_storage_and_json():
    alg = builtin_algebra(make_space(Lorentz(4)))
    t = alg.product
    assert np.array_equal(t.table, t.table.transpose(1, 0, 2))
    assert t.unit_law_residual() <= 1e-10
    back = ProductTensor.from_json(t.to_json())
    assert np.array_equal(back.table, t.table)
    assert np.array_equal(back.unit, t.unit)


def test_builtin_requires_default_unit():
    space = make_space(Orthant(2), [2.0, 1.0])
    with pytest.raises(UnsupportedConeError):
        builtin_algebra(space)


def test_tensor_dimension_cap():
    from symcone import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        ProductTensor(65, np.ones(65), np.zeros((65, 65, 65)))


# ---------------------------------------------------------------- stacked checkers

def _sample_ball_loop(space, rng):
    z = rng.standard_normal(space.dim)
    norm = order_unit_norm(space, z)
    if norm == 0.0:
        return z
    return z * (rng.uniform(0.05, 1.0) / norm)


def _qj_loop(alg, trials, seed, tol):
    """check_qj_axioms as a loop of single trials."""
    rng = np.random.default_rng(seed)
    tensor = alg.product
    space = alg.space
    r1 = float(np.abs(quad_rep(tensor, space.unit) - np.eye(tensor.n)).max())
    r2 = r3 = 0.0
    for _ in range(trials):
        x = _sample_ball_loop(space, rng)
        y = _sample_ball_loop(space, rng)
        z = _sample_ball_loop(space, rng)
        nx = order_unit_norm(space, x)
        ny = order_unit_norm(space, y)
        nz = order_unit_norm(space, z)
        ux = quad_rep(tensor, x)
        lhs = ux @ (quad_rep_bilinear(tensor, y, z) @ x)
        rhs = quad_rep_bilinear(tensor, ux @ y, x) @ z
        scale2 = (1.0 + nx) ** 3 * (1.0 + ny) * (1.0 + nz)
        r2 = max(r2, float(np.abs(lhs - rhs).max()) / scale2)
        op_lhs = quad_rep(tensor, ux @ y)
        op_rhs = ux @ quad_rep(tensor, y) @ ux
        scale3 = (1.0 + nx) ** 4 * (1.0 + ny) ** 2
        r3 = max(r3, float(np.abs(op_lhs - op_rhs).max()) / scale3)
    props = [
        PropertyResult.from_residual("qj1_unit", 1, r1, tol),
        PropertyResult.from_residual("qj2_triple", trials, r2, tol),
        PropertyResult.from_residual("qj3_composition", trials, r3, tol),
    ]
    return VerificationReport.from_properties(
        f"qj_axioms:{space.cone.label}", seed, props)


def _jb_loop(alg, trials, seed, tol):
    """check_jb_norm_conditions as a loop of single trials."""
    rng = np.random.default_rng(seed)
    tensor = alg.product
    space = alg.space
    r_sub = r_sq = r_mono = r_unorm = r_upos = 0.0
    for _ in range(trials):
        x = _sample_ball_loop(space, rng)
        y = _sample_ball_loop(space, rng)
        nx = order_unit_norm(space, x)
        ny = order_unit_norm(space, y)
        r_sub = max(r_sub, (order_unit_norm(space, tensor.multiply(x, y)) - nx * ny)
                    / (1.0 + nx * ny))
        xsq = tensor.square(x)
        r_sq = max(r_sq, abs(order_unit_norm(space, xsq) - nx * nx) / (1.0 + nx * nx))
        r_mono = max(r_mono, (order_unit_norm(space, xsq)
                              - order_unit_norm(space, xsq + tensor.square(y)))
                     / (1.0 + nx * nx))
        ux = quad_rep(tensor, x)
        r_unorm = max(r_unorm, abs(order_unit_norm(space, ux @ space.unit) - nx * nx)
                      / (1.0 + nx * nx))
        pos = sample_positive_rng(space, rng, rng.uniform(0.1, 1.0))
        slack = membership_slack(space.cone, ux @ pos)
        r_upos = max(r_upos, max(0.0, -slack) / (1.0 + nx * nx))
    props = [
        PropertyResult.from_residual("nc1_submultiplicative", trials, r_sub, tol),
        PropertyResult.from_residual("nc2_square_norm", trials, r_sq, tol),
        PropertyResult.from_residual("nc3_square_monotone", trials, r_mono, tol),
        PropertyResult.from_residual("quad_rep_norm", trials, r_unorm, tol),
        PropertyResult.from_residual("quad_rep_positive", trials, r_upos, tol),
    ]
    return VerificationReport.from_properties(
        f"jb_norm_conditions:{space.cone.label}", seed, props)


CHECKER_CONES = (Orthant(4), Lorentz(5), SymPSD(3), DirectSum((SymPSD(2), Lorentz(3), Orthant(2))))


@pytest.mark.parametrize("cone", CHECKER_CONES, ids=str)
def test_stacked_checkers_equal_the_per_trial_loops(cone):
    alg = builtin_algebra(make_space(cone))
    for seed in range(8):
        for trials in (1, 5, 37):
            assert check_qj_axioms(alg, trials, seed, 1e-8).to_canonical_json() == \
                _qj_loop(alg, trials, seed, 1e-8).to_canonical_json()
            assert check_jb_norm_conditions(alg, trials, seed, 1e-9).to_canonical_json() == \
                _jb_loop(alg, trials, seed, 1e-9).to_canonical_json()


def test_stacked_checkers_fail_broken_products_as_the_loops_do():
    truth = builtin_algebra(make_space(Orthant(4)))
    table = truth.product.table.copy()
    table[1, 2, 3] += 0.1
    table[2, 1, 3] += 0.1
    perturbed = AlgebraHandle(truth.space, ProductTensor(4, truth.product.unit.copy(), table))
    small = builtin_algebra(make_space(Orthant(3)))
    doubled = AlgebraHandle(small.space, ProductTensor(3, small.product.unit.copy(),
                                                       2.0 * small.product.table))
    for alg, trials in ((perturbed, 150), (doubled, 50)):
        qj = check_qj_axioms(alg, trials, 7, 1e-3)
        jb = check_jb_norm_conditions(alg, trials, 7, 1e-3)
        assert not (qj.passed and jb.passed)
        assert qj.to_canonical_json() == _qj_loop(alg, trials, 7, 1e-3).to_canonical_json()
        assert jb.to_canonical_json() == _jb_loop(alg, trials, 7, 1e-3).to_canonical_json()


# ------------------------------------------------------ closed-form inverses
# Inversion inverts orthant and Lorentz points in closed form; tensor_inverse,
# the LU solve of P(x) y = x, is the oracle it must agree with.

@settings(max_examples=40)
@given(cone=st.builds(Orthant, st.integers(1, 8)) | st.builds(Lorentz, st.integers(2, 20)),
       seed=st.integers(0, 10**6), radius=st.floats(0.05, 2.0), k=st.integers(1, 6))
def test_closed_form_inverse_matches_the_solve(cone, seed, radius, k):
    alg = builtin_algebra(make_space(cone))
    rng = np.random.default_rng(seed)
    xs = np.array([sample_interior_rng(alg.space, rng, radius) for _ in range(k)])
    closed, solved = Inversion(alg).apply(xs), tensor_inverse(alg.product, xs)
    assert (np.abs(closed - solved).max(axis=-1) <= 1e-13 * np.abs(solved).max(axis=-1)).all()
    assert np.array_equal(closed, np.array([Inversion(alg).apply(x) for x in xs]))


@pytest.mark.parametrize("cone, point", [
    (Orthant(3), [1.0, 0.0, 2.0]), (Orthant(3), [1.0, -1e-3, 2.0]), (Lorentz(2), [1.0, 1.0]),
    (Lorentz(4), [1.0, 0.6, 0.8, 0.0]), (Lorentz(4), [0.5, 0.6, 0.8, 0.0])], ids=str)
def test_closed_form_inverse_refuses_boundary_points(cone, point):
    space = make_space(cone)
    inv = Inversion(builtin_algebra(space))
    for x in (np.array(point), np.array([space.unit, point])):
        with pytest.raises(NotInteriorError):
            inv.apply(x)


def _ladder_point(cone, cond, rng):
    """An interior point at which P(x) has about the given condition."""
    n = cone.n
    if isinstance(cone, Orthant):
        x = rng.uniform(cond ** -0.5, 1.0, n)
        x[rng.permutation(n)[:2]] = 1.0, cond ** -0.5
        return x
    s = np.sqrt(cond)
    u = rng.standard_normal(n - 1)
    return np.concatenate([[1.0], (s - 1.0) / (s + 1.0) * u / np.linalg.norm(u)])


def _refusal(route, x):
    """route's NotInvertibleError text at x with the condition number left out, or None."""
    try:
        route(x)
    except NotInvertibleError as exc:
        return re.sub(r"condition \S+\)", "condition ?)", str(exc))
    return None


@pytest.mark.parametrize("cone", (Orthant(2), Orthant(6), Lorentz(2), Lorentz(5), Lorentz(20)),
                         ids=str)
def test_closed_form_inverse_refuses_as_the_solve_does(cone):
    # away from COND_LIMIT both routes refuse the same points; at it LAPACK's
    # condition estimate reads up to 1e-3 off the exact one
    alg = builtin_algebra(make_space(cone))
    rng = np.random.default_rng(11)
    refused = []
    for cond in np.geomspace(1e10, 1e14, 41):
        x = _ladder_point(cone, cond, rng)
        lapack_cond = np.linalg.cond(quad_rep(alg.product, x), 1)
        if abs(lapack_cond / linalg.COND_LIMIT - 1.0) < 0.01:
            continue
        refusal = _refusal(Inversion(alg).apply, x)
        assert refusal == _refusal(lambda y: tensor_inverse(alg.product, y), x)
        refused.append(refusal is not None)
        # a stack is refused once any of its points is
        with pytest.raises(NotInvertibleError) if refused[-1] else nullcontext():
            Inversion(alg).apply(np.array([alg.space.unit, x]))
    assert any(refused) and not all(refused)


@pytest.mark.parametrize("cone, solves", [
    (Orthant(6), 0), (Lorentz(5), 0), (SymPSD(3), 1), (DirectSum((Orthant(2), Lorentz(3))), 1)],
    ids=str)
def test_only_psd_and_sum_inversions_solve(cone, solves, monkeypatch):
    calls = []

    def counting(a, b, _real=linalg.solve_linear):
        calls.append(np.shape(a))
        return _real(a, b)

    monkeypatch.setattr(jordan, "solve_linear", counting)
    space = make_space(cone)
    rng = np.random.default_rng(2)
    xs = np.array([sample_interior_rng(space, rng, 1.0) for _ in range(4)])
    Inversion(builtin_algebra(space)).apply(xs)
    assert len(calls) == solves


# ------------------------------------------------------ the O(n) Lorentz condition

@settings(max_examples=60)
@given(n=st.integers(2, 20), seed=st.integers(0, 10**6),
       kinds=st.lists(st.sampled_from(("interior", "negated", "spacelike")), min_size=1,
                      max_size=4))
def test_lorentz_condition_equals_the_built_matrices(n, seed, kinds):
    """The closed-form condition is ||P(x)||_1 ||P(x^-1)||_1 of the built matrices, at
    interior points, their negatives and invertible points with |x_0| < |tail|."""
    alg = builtin_algebra(make_space(Lorentz(n)))
    rng = np.random.default_rng(seed)
    xs = []
    for kind in kinds:
        if kind == "spacelike":
            tail = rng.standard_normal(n - 1)
            xs.append(np.concatenate([[rng.uniform(-0.95, 0.95) * np.linalg.norm(tail)], tail]))
        else:
            x = sample_interior_rng(alg.space, rng, rng.uniform(0.1, 3.0))
            xs.append(-x if kind == "negated" else x)
    xs = np.array(xs)
    inv, cond = alg.space.cone.closed_inverse(xs)
    built = (linalg._norm1(quad_rep(alg.product, xs))
             * linalg._norm1(quad_rep(alg.product, inv)))
    assert (np.abs(cond - built) <= 1e-13 * built).all()
    # and the inverse is the unscaled formula's, bit for bit
    tail = xs[:, 1:]
    expect = xs / (xs[:, 0] * xs[:, 0] - np.vecdot(tail, tail))[:, None]
    expect[:, 1:] *= -1.0
    assert np.array_equal(inv, expect)


# ------------------------------------------------------ extreme scales
# Both inversion routes scale each point by a power of two to a largest entry
# in [0.5, 1) before building P(x) or q(x), which is exact.

SCALE_CONES = (Orthant(6), Lorentz(5), SymPSD(3), DirectSum((SymPSD(2), Lorentz(3), Orthant(2))))


@pytest.mark.parametrize("cone", SCALE_CONES, ids=str)
@pytest.mark.parametrize("decades", (-250, -200, -150, 150, 200, 250))
def test_inverses_hold_at_extreme_scales(cone, decades):
    alg = builtin_algebra(make_space(cone))
    rng = np.random.default_rng(5)
    xs = np.array([sample_interior_rng(alg.space, rng, 1.0) for _ in range(4)])
    k = round(decades * math.log2(10))
    far = np.ldexp(xs, k)  # exact
    for route in (lambda y: builtin_inverse(alg, y), lambda y: tensor_inverse(alg.product, y)):
        expect = np.ldexp(route(xs), -k)
        assert np.array_equal(route(far), expect)
        assert np.array_equal(np.array([route(x) for x in far]), expect)


def test_extreme_scale_examples():
    o2 = builtin_algebra(make_space(Orthant(2)))
    for x in ([1e160, 2e160], [1e-170, 2e-170]):
        np.testing.assert_allclose(tensor_inverse(o2.product, x), 1.0 / np.array(x), rtol=1e-15)
    l5 = builtin_algebra(make_space(Lorentz(5)))
    x = np.array([2.0, 0.5, -1.0, 0.25, 0.0])
    inv = np.array([2.0, -0.5, 1.0, -0.25, 0.0]) / 2.6875
    for scale in (1e160, 1e-170):
        for route in (lambda y: builtin_inverse(l5, y), lambda y: tensor_inverse(l5.product, y)):
            np.testing.assert_allclose(route(scale * x) * scale, inv, rtol=1e-15, atol=1e-16)


def test_lorentz_membership_holds_at_extreme_scales():
    # the slack scales each point as the inverse does, so |tail|^2 neither
    # overflows at 1e160 nor underflows at 1e-170
    inv = Inversion(builtin_algebra(make_space(Lorentz(3))))
    x = np.array([2.0, 0.5, 0.0])
    np.testing.assert_allclose(inv.apply(1e160 * x) * 1e160, [2.0 / 3.75, -0.5 / 3.75, 0.0],
                               rtol=1e-15)
    with pytest.raises(NotInteriorError):
        inv.apply(1e-170 * np.array([1.0, 1.0, 0.0]))
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((200, 5)) * np.exp(rng.uniform(-30.0, 30.0, (200, 1)))
    for k in (-800, 800):
        assert np.array_equal(membership_slack(Lorentz(5), np.ldexp(xs, k)),
                              np.ldexp(membership_slack(Lorentz(5), xs), k))


@settings(max_examples=30)
@given(cone=st.sampled_from(SCALE_CONES), seed=st.integers(0, 10**6), k=st.integers(1, 5))
def test_scaling_keeps_the_bits_of_the_unscaled_solve(cone, seed, k):
    alg = builtin_algebra(make_space(cone))
    rng = np.random.default_rng(seed)
    xs = np.array([sample_interior_rng(alg.space, rng, 2.0) for _ in range(k)])
    assert np.array_equal(tensor_inverse(alg.product, xs),
                          linalg.solve_linear(quad_rep(alg.product, xs), xs))
