"""The derivative/symmetry/quadratic-representation recovery pipeline."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcone import (
    AssemblyError,
    ComponentwisePower,
    DerivativeDomainError,
    DimensionMismatchError,
    DirectSum,
    ExtractionError,
    Inversion,
    LinearConjugate,
    Lorentz,
    NotInteriorError,
    Orthant,
    PipelineInconsistencyError,
    ProductTensor,
    Recovered,
    SymPSD,
    assemble_derivative,
    builtin_algebra,
    check_jb_norm_conditions,
    check_qj_axioms,
    cone_contains,
    conjugated_inversion,
    cross_validate,
    extract_product,
    hua_directional_derivative,
    identity_map,
    inversion_j,
    make_space,
    map_from_json,
    map_to_json,
    membership_slack,
    order_unit_norm,
    quad_rep_full,
    quad_rep_interior,
    svec,
    symmetry_at,
    verify_gauge_reversing,
    verify_reconstruction,
)
from symcone.cones import (
    INTERIOR_MARGIN,
    draw_interior,
    fold_max,
    place_interior,
    sample_interior_rng,
    sample_positive_rng,
)
from symcone import gauge_maps, jordan, linalg, reconstruction
from symcone.jordan import quad_rep
from symcone.reconstruction import QuadraticRep


def scalar_setup():
    space = make_space(Orthant(1))
    return space, Inversion(builtin_algebra(space))


def test_directional_derivative_scalar_example():
    space, inv = scalar_setup()
    # reciprocal map at 2 along 1/2: intermediate images 3/2 -> 2/3 -> 3/8
    out = hua_directional_derivative(inv, space, [2.0], [0.5])
    np.testing.assert_allclose(out, [-0.125])


def test_directional_derivative_orthant_example():
    o2 = make_space(Orthant(2))
    inv = Inversion(builtin_algebra(o2))
    out = hua_directional_derivative(inv, o2, [2.0, 2.0], [0.5, 0.25])
    np.testing.assert_allclose(out, [-1.0 / 8.0, -1.0 / 16.0], atol=1e-14)


def test_directional_derivative_scaling():
    o3 = make_space(Orthant(3))
    inv = Inversion(builtin_algebra(o3))
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = sample_interior_rng(o3, rng, 0.8)
        out = hua_directional_derivative(inv, o3, x, x / 4.0)
        np.testing.assert_allclose(out, -inv.apply(x) / 4.0, atol=1e-13)


def test_directional_derivative_preconditions():
    o2 = make_space(Orthant(2))
    inv = Inversion(builtin_algebra(o2))
    with pytest.raises(DerivativeDomainError):
        hua_directional_derivative(inv, o2, [1.0, 1.0], [1.0, 1.0])


def test_assembled_derivative_examples():
    o3 = make_space(Orthant(3))
    inv = Inversion(builtin_algebra(o3))
    d = assemble_derivative(inv, o3, o3.unit)
    np.testing.assert_allclose(d.matrix, -np.eye(3), atol=1e-12)

    space, sinv = scalar_setup()
    d = assemble_derivative(sinv, space, [3.0])
    np.testing.assert_allclose(d.matrix, [[-1.0 / 9.0]], atol=1e-13)

    p2 = make_space(SymPSD(2))
    pinv = Inversion(builtin_algebra(p2))
    x = svec(np.diag([2.0, 1.0]))
    d = assemble_derivative(pinv, p2, x)
    e11 = svec(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(d.matrix @ e11, -e11 / 4.0, atol=1e-12)


def test_assembled_derivative_invariants():
    rng = np.random.default_rng(1)
    for cone in (Orthant(3), Lorentz(4), SymPSD(2)):
        space = make_space(cone)
        inv = Inversion(builtin_algebra(space))
        for _ in range(5):
            x = sample_interior_rng(space, rng, 0.7)
            d = assemble_derivative(inv, space, x)
            fx = inv.apply(x)
            assert order_unit_norm(space, d.matrix @ x + fx) <= 1e-9 * (1 + order_unit_norm(space, fx))
            for _ in range(10):
                y = sample_positive_rng(space, rng, 1.0)
                assert cone_contains(space.cone, -(d.matrix @ y), -1e-10)


def test_assembled_derivative_matches_central_differences():
    # independent oracle: symmetric difference quotient of the map itself
    o2 = make_space(Orthant(2))
    inv = Inversion(builtin_algebra(o2))
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(10):
        x = sample_interior_rng(o2, rng, 0.5)
        d = assemble_derivative(inv, o2, x).matrix
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1.0
            fd = (inv.apply(x + h * e) - inv.apply(x - h * e)) / (2.0 * h)
            assert np.abs(fd - d[:, j]).max() <= 1e-7


def test_symmetry_scalar_example():
    space, inv = scalar_setup()
    s2 = symmetry_at(inv, space, [2.0])
    np.testing.assert_allclose(s2.apply([2.0]), [2.0], atol=1e-13)
    np.testing.assert_allclose(s2.apply([1.0]), [4.0], atol=1e-13)
    np.testing.assert_allclose(s2.apply([8.0]), [0.5], atol=1e-13)


def test_symmetry_at_unit_is_inversion_itself():
    o3 = make_space(Orthant(3))
    inv = Inversion(builtin_algebra(o3))
    s = symmetry_at(inv, o3, o3.unit)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = sample_interior_rng(o3, rng, 1.0)
        np.testing.assert_allclose(s.apply(x), inv.apply(x), atol=1e-12)


def test_normalization_strips_linear_wrapping():
    # j of a conjugated inversion is the plain inversion again
    for cone in (Orthant(3), Lorentz(4), SymPSD(2)):
        space = make_space(cone)
        inv = Inversion(builtin_algebra(space))
        mp = conjugated_inversion(space, 7)
        j = inversion_j(mp, space)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = sample_interior_rng(space, rng, 1.0)
            assert order_unit_norm(space, j.apply(x) - inv.apply(x)) <= 1e-9


def test_inversion_j_is_involution_fixing_unit():
    o3 = make_space(Orthant(3))
    j = inversion_j(conjugated_inversion(o3, 9), o3)
    np.testing.assert_allclose(j.apply(o3.unit), o3.unit, atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = sample_interior_rng(o3, rng, 1.0)
        assert order_unit_norm(o3, j.apply(j.apply(x)) - x) <= 1e-9


def test_quad_rep_interior_examples():
    space, sinv = scalar_setup()
    j1 = inversion_j(sinv, space)
    # at 2, probing with 1: j(1/2 - 1/3) - 2 = 6 - 2 = 4
    np.testing.assert_allclose(quad_rep_interior(j1, space, [2.0]), [[4.0]], atol=1e-12)

    o2 = make_space(Orthant(2))
    j2 = inversion_j(Inversion(builtin_algebra(o2)), o2)
    np.testing.assert_allclose(quad_rep_interior(j2, o2, o2.unit), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(quad_rep_interior(j2, o2, [2.0, 3.0]),
                               np.diag([4.0, 9.0]), atol=1e-11)


def test_quad_rep_full_examples():
    o2 = make_space(Orthant(2))
    j2 = inversion_j(Inversion(builtin_algebra(o2)), o2)
    np.testing.assert_allclose(quad_rep_full(j2, o2, [0.0, 0.0]), np.zeros((2, 2)),
                               atol=1e-11)
    np.testing.assert_allclose(quad_rep_full(j2, o2, [-1.0, -1.0]), np.eye(2),
                               atol=1e-11)
    np.testing.assert_allclose(quad_rep_full(j2, o2, [1.0, -2.0]),
                               np.diag([1.0, 4.0]), atol=1e-11)


def test_quad_rep_full_matches_builtin_on_ambient_points():
    rng = np.random.default_rng(6)
    for cone in (Orthant(3), Lorentz(4), SymPSD(2)):
        space = make_space(cone)
        alg = builtin_algebra(space)
        prep = QuadraticRep(inversion_j(Inversion(alg), space), space)
        for _ in range(6):
            x = rng.standard_normal(space.dim)
            np.testing.assert_allclose(prep(x), quad_rep(alg.product, x), atol=1e-9)


BASELINE_CONES = (Orthant(6), Lorentz(5), SymPSD(3), SymPSD(4), SymPSD(6), Lorentz(20))


@pytest.mark.parametrize("cone", BASELINE_CONES, ids=str)
def test_second_difference_matches_the_builtin_formula(cone):
    # 40 ambient points of norm 0.05 to 3; deviation relative to 1 + |P|.  The
    # shift trick it replaced measured up to 2.7e-12 (inversions) and 2.4e-11
    # (conjugates at seed 0) on these points; the second difference 1.1e-13
    # and 1.4e-11
    space = make_space(cone)
    alg = builtin_algebra(space)
    x = np.random.default_rng(7).standard_normal((40, space.dim))
    x *= (np.geomspace(0.05, 3.0, 40) / order_unit_norm(space, x))[:, None]
    truth = np.array([quad_rep(alg.product, p) for p in x])
    for spec, bound in ((Inversion(alg), 1e-12), (conjugated_inversion(space, 0), 2e-11)):
        prep = QuadraticRep(inversion_j(spec, space), space)
        dev = np.abs(prep(x) - truth).max(axis=(1, 2)) / (1.0 + np.abs(truth).max(axis=(1, 2)))
        assert dev.max() <= bound, (spec, dev.max())


def test_second_difference_gates_a_non_quadratic_map():
    # a degree -3 power map read as an inversion gives no quadratic P, so its
    # second difference changes with the step
    o3 = make_space(Orthant(3))
    with pytest.raises(PipelineInconsistencyError, match="depends on the step"):
        quad_rep_full(ComponentwisePower(-3.0), o3, [0.5, -1.0, 2.0], cross_check=False)


def test_extraction_matches_ground_truth():
    for cone, tol in ((Orthant(3), 1e-10), (SymPSD(2), 1e-9), (Lorentz(4), 1e-9)):
        space = make_space(cone)
        alg = builtin_algebra(space)
        j = inversion_j(Inversion(alg), space)
        tensor = extract_product(j, space)
        assert cross_validate(tensor, alg.product) <= tol


def test_extraction_largest_psd_order():
    # d=4 is the largest matrix order exercised routinely; tolerance relaxed
    # to 1e-6 for eigensolver accumulation, with ample measured margin
    space = make_space(SymPSD(4))
    alg = builtin_algebra(space)
    tensor = extract_product(inversion_j(Inversion(alg), space), space)
    assert cross_validate(tensor, alg.product) <= 1e-6


def test_extraction_on_direct_sum_is_blockwise():
    from symcone import DirectSum
    space = make_space(DirectSum((Orthant(2), Lorentz(3))))
    alg = builtin_algebra(space)
    tensor = extract_product(inversion_j(Inversion(alg), space), space)
    assert cross_validate(tensor, alg.product) <= 1e-9
    # off-block entries of the recovered table vanish
    assert np.abs(tensor.table[:2, 2:, :]).max() <= 1e-10
    assert np.abs(tensor.table[2:, :2, :]).max() <= 1e-10


def test_cross_validate_contracts():
    o3 = make_space(Orthant(3))
    truth = builtin_algebra(o3).product
    assert cross_validate(truth, truth) == 0.0
    with pytest.raises(DimensionMismatchError):
        cross_validate(truth, builtin_algebra(make_space(Orthant(4))).product)
    with pytest.raises(DimensionMismatchError):
        # spin product lives at a different unit vector
        cross_validate(truth, builtin_algebra(make_space(Lorentz(3))).product)
    # a structurally different product at the same unit deviates by O(1)
    doubled = type(truth)(truth.n, truth.unit.copy(), 2.0 * truth.table)
    assert cross_validate(truth, doubled) > 0.1


def test_reconstruction_suite_passes_on_inversion():
    o4 = make_space(Orthant(4))
    report = verify_reconstruction(Inversion(builtin_algebra(o4)), o4,
                                   trials=40, seed=3, tol=1e-7)
    assert report.passed, [(p.name, p.max_residual) for p in report.failing()]


def test_wrong_degree_map_fails_hua_and_homogeneity():
    o3 = make_space(Orthant(3))
    pw = ComponentwisePower(-3.0)
    report = verify_reconstruction(pw, o3, trials=15, seed=3, tol=1e-3)
    assert not report.passed
    failing = {p.name for p in report.failing()}
    assert "hua_identity" in failing
    assert "derivative_formula" in failing or "derivative_first_order_bound" in failing


def test_stacked_quadratic_rep_calls_equal_the_per_point_calls():
    # one evaluator serves every call, and no call depends on the ones before it
    for cone in (Orthant(6), Lorentz(5), SymPSD(3)):
        space = make_space(cone)
        prep = QuadraticRep(inversion_j(conjugated_inversion(space, 7), space), space)
        x = np.random.default_rng(27).standard_normal((5, space.dim))
        x *= np.array([0.05, 0.4, 1.0, 2.0, 3.0])[:, None]
        singles = [prep(p) for p in x]
        assert np.array_equal(prep(x), singles)
        assert np.array_equal(prep(x[::-1]), singles[::-1])
        assert np.array_equal(prep(x[2]), singles[2])


def test_every_point_of_a_checked_evaluation_is_cross_checked(monkeypatch):
    # a memo of interior evaluations once let a point an earlier call left
    # unchecked skip the cross check of a later, checked one
    o2 = make_space(Orthant(2))
    prep = QuadraticRep(inversion_j(Inversion(builtin_algebra(o2)), o2), o2)
    checked = _count_checked(monkeypatch)
    prep([1.0, -0.5])
    checked.clear()
    x = np.array([3.0, -1.0])
    np.testing.assert_allclose(prep(x), np.diag([9.0, 1.0]), atol=1e-12)
    s = 0.5 / 3.0
    assert sorted(checked) == sorted(map(bytes, (o2.unit + s * x, o2.unit - s * x)))


def test_extraction_polarizes_at_the_unit_with_checks_on(monkeypatch):
    space = make_space(Lorentz(4))
    j = inversion_j(Inversion(builtin_algebra(space)), space)
    checks = []
    real = reconstruction.quad_rep_interior

    def counting(j_map, space, x, probes=None, cross_check=True):
        checks.extend([cross_check] * len(np.atleast_2d(x)))  # one entry per point
        return real(j_map, space, x, probes, cross_check)

    def forbidden(*args, **kwargs):
        raise AssertionError("extraction must not extend P to the whole space")

    monkeypatch.setattr(reconstruction, "quad_rep_interior", counting)
    monkeypatch.setattr(reconstruction, "quad_rep_full", forbidden)
    extract_product(j, space)
    assert checks == [True] * (2 * space.dim)


def test_extraction_rejects_a_non_jordan_map():
    space = make_space(Lorentz(3))
    truth = builtin_algebra(space).product
    skewed = ProductTensor(truth.n, truth.unit.copy(), truth.table)
    skewed.table = truth.table.copy()
    skewed.table[0, 1] += 0.05 * np.arange(1, truth.n + 1)  # b0*b1 != b1*b0
    # the stack of polarization points raises the first gate it trips, here
    # the derivative assembly's base-point identity at some points
    with pytest.raises((AssemblyError, ExtractionError, PipelineInconsistencyError)):
        extract_product(Recovered(skewed), space)


def test_extraction_gates_non_commuting_operators(monkeypatch):
    o3 = make_space(Orthant(3))
    j = inversion_j(Inversion(builtin_algebra(o3)), o3)
    real = reconstruction.quad_rep_interior

    def skewed(j_map, space, x, probes=None, cross_check=True):
        out = real(j_map, space, x, probes, cross_check)
        # only the point e + t*b0 of the stack, so only L(b0) moves
        out[x[:, 0] > 1.0] += 1e-3 * np.outer([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        return out

    monkeypatch.setattr(reconstruction, "quad_rep_interior", skewed)
    with pytest.raises(ExtractionError, match="do not commute"):
        extract_product(j, o3)


def test_failed_property_names_its_exception():
    class Broken:
        def apply(self, x):
            raise RuntimeError("no image")

        apply_inverse = apply

    o2 = make_space(Orthant(2))
    report = verify_reconstruction(Broken(), o2, trials=2, seed=1)
    assert report.properties and not report.passed
    for p in report.properties:
        assert p.max_residual == np.inf
        assert p.error == "RuntimeError: no image", p.name
    assert "error=RuntimeError: no image" in report.to_text()
    assert all("error" not in p for p in report.to_dict()["properties"])


def test_suite_reports_are_deterministic():
    o3 = make_space(Orthant(3))
    inv = Inversion(builtin_algebra(o3))
    a = verify_reconstruction(inv, o3, trials=10, seed=5, tol=1e-7)
    b = verify_reconstruction(inv, o3, trials=10, seed=5, tol=1e-7)
    assert a.to_canonical_json() == b.to_canonical_json()


# ------------------------------------------------- stacked directions and probes
# The loops below evaluate one direction or probe per map call; the pipeline
# must give exactly their results from its stacked calls.

def _probe_step_loop(space, x, direction, margin):
    t = 1.0
    for _ in range(80):
        if membership_slack(space.cone, x + t * direction) > margin and \
                membership_slack(space.cone, x - t * direction) > margin:
            return t
        t *= 0.5
    raise AssertionError("no probe step")


def _assemble_loop(map_spec, space, x):
    n = space.dim
    margin = INTERIOR_MARGIN * max(1.0, np.abs(x).max())
    base = hua_directional_derivative(map_spec, space, x, 0.25 * x)
    cols = np.empty((n, n))
    eye = np.eye(n)
    for j in range(n):
        t = 0.5 * _probe_step_loop(space, x, eye[:, j], margin)
        u = 0.25 * (x + t * eye[:, j])
        cols[:, j] = (hua_directional_derivative(map_spec, space, x, u) - base) * (4.0 / t)
    return cols


def _quad_rep_loop(j_map, space, x):
    n = space.dim
    unit = np.asarray(space.unit)
    margin = INTERIOR_MARGIN * max(1.0, np.abs(unit).max())
    eye = np.eye(n)
    steps = [_probe_step_loop(space, unit, eye[:, j], margin) for j in range(n)]
    points = [unit] + [unit + steps[j] * eye[:, j] for j in range(n)]
    jx = j_map.apply(x)
    images = [j_map.apply(jx - j_map.apply(x + j_map.apply(p))) - x for p in points]
    cols = np.empty((n, n))
    for j in range(n):
        cols[:, j] = (images[j + 1] - images[0]) / steps[j]
    return cols


PIPELINE_CONES = (Orthant(3), Lorentz(4), SymPSD(2), DirectSum((SymPSD(2), Lorentz(3))))


@pytest.mark.parametrize("cone", PIPELINE_CONES, ids=str)
def test_stacked_pipeline_equals_the_per_direction_loops(cone):
    space = make_space(cone)
    rng = np.random.default_rng(21)
    for spec in (Inversion(builtin_algebra(space)), conjugated_inversion(space, 3)):
        j = inversion_j(spec, space)
        for _ in range(2):
            x = sample_interior_rng(space, rng, 0.5)
            dirs = rng.standard_normal((4, space.dim))
            steps = reconstruction._probe_step(space, x, dirs, 1e-9)
            assert steps.tolist() == [_probe_step_loop(space, x, d, 1e-9) for d in dirs]
            assert np.array_equal(assemble_derivative(spec, space, x).matrix,
                                  _assemble_loop(spec, space, x))
            assert np.array_equal(quad_rep_interior(j, space, x, cross_check=False),
                                  _quad_rep_loop(j, space, x))


def test_directional_derivative_of_a_stack():
    space = make_space(Lorentz(4))
    inv = conjugated_inversion(space, 4)
    rng = np.random.default_rng(22)
    x = sample_interior_rng(space, rng, 0.5)
    us = np.array([0.25 * (x + 0.1 * sample_interior_rng(space, rng, 0.5)) for _ in range(5)])
    out = hua_directional_derivative(inv, space, x, us)
    rows = np.array([hua_directional_derivative(inv, space, x, u) for u in us])
    assert out.shape == us.shape
    assert np.abs(out - rows).max() <= 1e-13 * np.abs(rows).max()
    us[3] = x  # 2u <= x fails on one row only
    with pytest.raises(DerivativeDomainError):
        hua_directional_derivative(inv, space, x, us)


# ------------------------------------------------------------ seed sweep

@pytest.mark.parametrize("cone", (Orthant(6), Lorentz(5), SymPSD(3)), ids=str)
@settings(max_examples=10)
@given(seed=st.none() | st.integers(0, 10**6))
def test_extraction_holds_across_seeds(cone, seed):
    # seed None is the plain inversion; others conjugate it with automorphisms
    # drawn at seed and seed + 1
    space = make_space(cone)
    if seed is None:
        spec = Inversion(builtin_algebra(space))
    else:
        spec = conjugated_inversion(space, seed)
    tensor = extract_product(inversion_j(spec, space), space)
    assert cross_validate(tensor, builtin_algebra(space).product) <= 1e-8


@pytest.mark.parametrize("cone", (Orthant(6), Lorentz(2), Lorentz(5), SymPSD(3),
                                  DirectSum((SymPSD(2), Lorentz(3), Orthant(2)))), ids=str)
@settings(max_examples=5)
@given(seed=st.integers(0, 10**6))
def test_inversion_certifies_across_seeds(cone, seed):
    # a correct map must PASS at every seed, not only cross-validate, and so
    # must its conjugates by the seeded automorphisms, of condition <= 4
    space = make_space(cone)
    for spec in (Inversion(builtin_algebra(space)), conjugated_inversion(space, seed)):
        report = verify_reconstruction(spec, space, trials=5, seed=seed)
        assert report.passed, [(p.name, p.max_residual, p.error) for p in report.failing()]


# ------------------------------------------------------- condition ladder
# Conjugates of prescribed condition kappa: the inversion followed by P(a),
# a = e + (sqrt(kappa) - 1) p with p an extremal vector, so that a has the
# spectrum {1, sqrt(kappa)} and P(a) the 2-norm condition kappa.  Every suite
# passes and extraction holds up to kappa = 1e2 at seeds 0..2; they fail from
# 1e3 on the sum, from 1e4 on lorentz5 and from 1e5 on orthant6.  psd3, which
# inverts X in closed form, passes the 1e2 rung at seeds 0..14 and the 1e3
# rung at 14 of them (seed 0 FAILs derivative_formula).  This ladder is the
# canary for a loss of accuracy in the inverses behind the derivative.

LADDER_CONES = (Orthant(6), Lorentz(5), SymPSD(3), DirectSum((SymPSD(2), Lorentz(3), Orthant(2))))


def _ladder_extremal(cone, rng):
    """The ladder's extremal vector p, drawn from rng: e_0 on an orthant, 1/2 (1, w)
    on a Lorentz cone and u u^T on PSD matrices, with w and u unit normal draws,
    and on a sum that of its first part.  These are the inputs the rungs were
    measured on, kept apart from the draws of state_extremal_pairs."""
    if isinstance(cone, DirectSum):
        p = np.zeros(cone.dim)
        p[cone.slices[0]] = _ladder_extremal(cone.parts[0], rng)
        return p
    if isinstance(cone, Orthant):
        return np.eye(cone.n)[0]
    u = rng.standard_normal(cone.n - 1 if isinstance(cone, Lorentz) else cone.d)
    u /= np.linalg.norm(u)
    if isinstance(cone, Lorentz):
        return 0.5 * np.concatenate(([1.0], u))
    return svec(np.outer(u, u))


def _ladder_conjugate(space, kappa, seed):
    alg = builtin_algebra(space)
    p = _ladder_extremal(space.cone, np.random.default_rng(seed))
    a = space.unit + (math.sqrt(kappa) - 1.0) * p
    return LinearConjugate(quad_rep(alg.product, a), Inversion(alg), np.eye(space.dim))


@pytest.mark.parametrize("cone", LADDER_CONES, ids=str)
def test_conjugates_certify_and_extract_up_to_condition_1e2(cone):
    space = make_space(cone)
    truth = builtin_algebra(space).product
    for kappa in (1e1, 1e2):
        for seed in range(3):
            spec = _ladder_conjugate(space, kappa, seed)
            assert np.linalg.cond(spec.pre) == pytest.approx(kappa, rel=1e-9)
            for report in (verify_gauge_reversing(spec, space, space, trials=5, seed=seed),
                           verify_reconstruction(spec, space, trials=5, seed=seed)):
                assert report.passed, (kappa, seed, [p.name for p in report.failing()])
            tensor = extract_product(inversion_j(spec, space), space)
            assert cross_validate(tensor, truth) <= 1e-8


@pytest.mark.parametrize("seed", range(15))
def test_the_psd3_1e2_rung_certifies_past_the_pinned_seeds(seed):
    # the closed-form inverse loses half the digits the solve of P(x) y = x
    # lost, so quad_rep_at_unit holds at every seed, not only at 0..2
    space = make_space(SymPSD(3))
    report = verify_reconstruction(_ladder_conjugate(space, 1e2, seed), space, trials=5,
                                   seed=seed)
    assert report.passed, [(p.name, p.max_residual) for p in report.failing()]


def test_a_conjugate_past_the_condition_floor_fails_with_a_report():
    # a conjugated inversion is gauge-reversing at any condition; on psd3 the
    # gauge suite passes up to 1e5, reconstruction fails at 1e5 and both at 1e6
    space = make_space(SymPSD(3))
    spec = _ladder_conjugate(space, 1e5, 0)
    assert verify_gauge_reversing(spec, space, space, trials=5, seed=0).passed
    assert not verify_reconstruction(spec, space, trials=5, seed=0).passed
    spec = _ladder_conjugate(space, 1e6, 0)
    for report in (verify_gauge_reversing(spec, space, space, trials=5, seed=0),
                   verify_reconstruction(spec, space, trials=5, seed=0)):
        assert not report.passed


# ------------------------------------------------------- stacked base points
# A stack of base points must give, bit for bit, what the per-point calls give,
# and fail as the per-point loop fails.

SWEEP_CONES = (Orthant(6), Lorentz(5), SymPSD(3), DirectSum((SymPSD(2), Lorentz(3), Orthant(2))))


def _sweep_map(space, seed):
    # even seeds: the plain inversion; odd ones: a conjugated inversion
    if seed % 2 == 0:
        return Inversion(builtin_algebra(space))
    return conjugated_inversion(space, seed)


@pytest.mark.parametrize("cone", SWEEP_CONES, ids=str)
@settings(max_examples=6)
@given(seed=st.integers(0, 10**6), k=st.integers(1, 5))
def test_stacked_base_points_equal_the_per_point_calls(cone, seed, k):
    space = make_space(cone)
    spec = _sweep_map(space, seed)
    j = inversion_j(spec, space)
    rng = np.random.default_rng(seed)
    xs = np.array([sample_interior_rng(space, rng, 0.6) for _ in range(k)])

    derivs = assemble_derivative(spec, space, xs)
    assert np.array_equal(derivs.matrix,
                          [assemble_derivative(spec, space, x).matrix for x in xs])
    assert np.array_equal(derivs.point, xs)
    assert np.array_equal(derivs.image, spec.apply(xs))

    us = 0.25 * (xs[:, None, :] + 0.1 * rng.uniform(0.0, 1.0, (k, 3, 1)) * xs[:, None, :])
    assert np.array_equal(hua_directional_derivative(spec, space, xs, us),
                          [hua_directional_derivative(spec, space, x, u) for x, u in zip(xs, us)])

    assert np.array_equal(quad_rep_interior(j, space, xs),
                          [quad_rep_interior(j, space, x) for x in xs])

    sym = symmetry_at(spec, space, xs)
    singles = [symmetry_at(spec, space, x) for x in xs]
    assert np.array_equal(sym.post, [s.post for s in singles])
    probes = np.array([sample_interior_rng(space, rng, 0.8) for _ in range(k)])
    assert np.array_equal(sym.apply(probes), [s.apply(z) for s, z in zip(singles, probes)])
    assert np.array_equal(sym.apply(xs), [s.apply(x) for s, x in zip(singles, xs)])

    ambient = rng.standard_normal((k, space.dim))
    assert np.array_equal(QuadraticRep(j, space)(ambient),
                          [QuadraticRep(j, space)(a) for a in ambient])


@pytest.mark.parametrize("cone", (Lorentz(5), SymPSD(3),
                                  DirectSum((SymPSD(2), Lorentz(3), Orthant(2)))), ids=str)
def test_slicing_long_stacks_changes_no_result(cone, monkeypatch):
    # tensor_inverse solves long stacks in chunks of stack_rows(n) points; the
    # inversion on PSD cones and sums goes through it inside the pipeline
    space = make_space(cone)
    alg = builtin_algebra(space)
    spec = conjugated_inversion(space, 6)
    j = inversion_j(spec, space)
    rng = np.random.default_rng(26)
    xs = np.array([sample_interior_rng(space, rng, 0.6) for _ in range(7)])

    def results():
        return (jordan.tensor_inverse(alg.product, xs), assemble_derivative(spec, space, xs).matrix,
                quad_rep_interior(j, space, xs))

    whole = results()
    batches = []

    def solve(a, b):
        batches.append(len(b))
        return linalg.solve_linear(a, b)

    # chunks of 3 points, so no chunk lines up with the n + 1 rows of a point
    monkeypatch.setattr(linalg, "STACK_ENTRIES", 3 * space.dim ** 2)
    monkeypatch.setattr(jordan, "solve_linear", solve)
    assert all(np.array_equal(a, b) for a, b in zip(whole, results()))
    assert batches[:3] == [3, 3, 1] and max(batches) == 3


class _Counting:
    """A map recording the shape of every stack it is sent."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def apply(self, x):
        self.calls.append(np.shape(x))
        return self.inner.apply(x)

    apply_inverse = apply


def test_maps_take_whole_stacks_whatever_the_budget(monkeypatch):
    space = make_space(Lorentz(20))
    inv = Inversion(builtin_algebra(space))
    default = _Counting(inv)
    extract_product(inversion_j(default, space), space)
    # a budget of one row per n x n operator sends each map the same stacks
    monkeypatch.setattr(linalg, "STACK_ENTRIES", space.dim ** 2)
    small = _Counting(inv)
    extract_product(inversion_j(small, space), space)
    assert small.calls == default.calls
    # the 2n polarization points, n + 1 probes each, in one call
    assert (2 * space.dim * (space.dim + 1), space.dim) in default.calls


@pytest.mark.parametrize("cone", (Orthant(jordan.MAX_DIM), Lorentz(jordan.MAX_DIM)), ids=str)
def test_extraction_at_the_dimension_cap_recovers_the_product(cone):
    space = make_space(cone)
    alg = builtin_algebra(space)
    tensor = extract_product(inversion_j(Inversion(alg), space), space)
    assert cross_validate(tensor, alg.product) <= 1e-14


# operator-entry budgets at dimension n: blocks of one trial each (and
# tensor_inverse chunks of one point), and blocks of five single-point trials, so that blocks of
# several trials start after trial 0 and a shorter block ends a property
BUDGETS = {"one_trial": lambda n: 1, "five_trials": lambda n: 5 * n * n}


def _budget_reports(spec, space, trials):
    alg = builtin_algebra(space)
    return [report.to_canonical_json() for report in (
        verify_reconstruction(spec, space, trials=trials, seed=5),
        check_qj_axioms(space, alg.product, trials=trials, seed=6),
        check_jb_norm_conditions(space, alg.product, trials=trials, seed=7))]


@pytest.mark.parametrize("cone", (Orthant(6), Lorentz(5), SymPSD(3),
                                  DirectSum((SymPSD(2), Lorentz(3), Orthant(2)))), ids=str)
def test_the_block_budget_changes_no_report(cone, monkeypatch):
    space = make_space(cone)
    spec = conjugated_inversion(space, 5)
    default = _budget_reports(spec, space, 7)
    for budget, entries in BUDGETS.items():
        monkeypatch.setattr(linalg, "STACK_ENTRIES", entries(space.dim))
        assert _budget_reports(spec, space, 7) == default, budget


def _raised(fn, x):
    with pytest.raises(Exception) as info:
        fn(x)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("cone", SWEEP_CONES, ids=str)
@settings(max_examples=4)
@given(seed=st.integers(0, 10**6), where=st.integers(0, 3), outside=st.booleans())
def test_one_bad_point_fails_the_stack_as_it_fails_alone(cone, seed, where, outside):
    space = make_space(cone)
    inv = Inversion(builtin_algebra(space))
    j = inversion_j(inv, space)
    rng = np.random.default_rng(seed)
    good = np.array([sample_interior_rng(space, rng, 0.6) for _ in range(3)])
    # on the boundary, or outside the cone by as much again
    bad = good[0] - (1.5 if outside else 1.0) * membership_slack(space.cone, good[0]) * space.unit
    stack = np.insert(good, where, bad, axis=0)
    for fn in (lambda x: assemble_derivative(inv, space, x),
               lambda x: quad_rep_interior(j, space, x),
               lambda x: symmetry_at(inv, space, x)):
        assert _raised(fn, stack) == _raised(fn, bad)


def test_a_stack_given_its_images_replays_each_point_alone():
    # a stack given its stacked images fails its gate at its first point, as
    # that point fails alone, rather than with a shape mismatch
    space = make_space(Orthant(3))
    pw = ComponentwisePower(-3.0)
    xs = np.array([[1.0, 2.0, 0.5], [0.5, 1.0, 2.0]])
    assert _raised(lambda x: assemble_derivative(pw, space, x, fx=pw.apply(x)), xs) == \
        _raised(lambda x: assemble_derivative(pw, space, x), xs[0])


def test_the_symmetry_gate_applies_to_every_point_of_a_stack():
    # x -> x**(-1 - 1e-8) misses degree -1 by a hair: its symmetries fix
    # points below the unit to within the 1e-9 gate, but not points above it
    space = make_space(Orthant(3))
    pw = ComponentwisePower(-1.0 - 1e-8)
    low, high = np.array([0.3, 0.4, 0.35]), np.array([2.0, 3.0, 2.5])

    def sym(x):
        return symmetry_at(pw, space, x)

    sym(low)
    assert _raised(sym, high)[1].startswith("symmetry does not fix its base point")
    for stack in ([low, high], [high, low]):
        assert _raised(sym, np.array(stack)) == _raised(sym, high)


def test_stacked_directions_need_every_base_point_admissible():
    space = make_space(Lorentz(4))
    inv = conjugated_inversion(space, 4)
    rng = np.random.default_rng(23)
    xs = np.array([sample_interior_rng(space, rng, 0.5) for _ in range(3)])
    us = 0.25 * np.repeat(xs[:, None, :], 2, axis=1)
    us[1, 1] = xs[1]   # 2u <= x fails at one base point only
    with pytest.raises(DerivativeDomainError):
        hua_directional_derivative(inv, space, xs, us)
    with pytest.raises(DimensionMismatchError):
        hua_directional_derivative(inv, space, xs, us[:2])


def _count_checked(monkeypatch):
    checked = []
    real = reconstruction.quad_rep_interior

    def counting(j_map, space, x, probes=None, cross_check=True):
        if cross_check:
            checked.extend(map(bytes, np.atleast_2d(x)))
        return real(j_map, space, x, probes, cross_check)

    monkeypatch.setattr(reconstruction, "quad_rep_interior", counting)
    return checked


@pytest.mark.parametrize("cone", (Lorentz(5), SymPSD(3)), ids=str)
def test_grouped_quad_rep_calls_cross_check_every_point_the_single_calls_do(cone, monkeypatch):
    space = make_space(cone)
    j = inversion_j(Inversion(builtin_algebra(space)), space)
    rng = np.random.default_rng(24)
    xs = np.array([sample_interior_rng(space, rng, 0.6) for _ in range(3)])
    ys = rng.standard_normal((3, space.dim))
    checked = _count_checked(monkeypatch)

    prep = QuadraticRep(j, space)
    single_bil = [prep.bilinear(x, y) for x, y in zip(xs, ys)]
    single = checked.copy()
    checked.clear()
    assert np.array_equal(prep.bilinear(xs, ys), single_bil)
    # both interior points x +- t*y of every pair, in pair order, each checked once
    assert checked == single and len(set(checked)) == 2 * 3
    pts = np.array([np.frombuffer(p) for p in checked]).reshape(3, 2, space.dim)
    np.testing.assert_allclose(pts.mean(axis=1), xs, rtol=1e-14)
    assert np.all(membership_slack(space.cone, pts.reshape(-1, space.dim)) > 0.0)

    checked.clear()
    single_par = [prep(x + y) + prep(x - y) - 2.0 * prep(x) - 2.0 * prep(y)
                  for x, y in zip(xs, ys)]
    single = set(checked)
    # x + y, x - y, x and y of 3 pairs, each checked at its 2 first-step points
    assert len(single) == 2 * 12
    checked.clear()
    prep = QuadraticRep(j, space)
    assert np.array_equal(prep.parallelogram(xs, ys), single_par)
    assert set(checked) >= single
    assert len(checked) == len(set(checked))   # each distinct point evaluated once


@pytest.mark.parametrize("cone", SWEEP_CONES, ids=str)
def test_bilinear_polarizes_at_an_interior_point(cone):
    # (P(x + t*y) - P(x - t*y)) / (4t) at interior x is exact for a quadratic
    # P, so it meets the builtin product's P(x, y) and the three-point
    # polarization of the ambient extension
    space = make_space(cone)
    alg = builtin_algebra(space)
    prep = QuadraticRep(inversion_j(Inversion(alg), space), space)
    rng = np.random.default_rng(31)
    xs = np.array([sample_interior_rng(space, rng, 0.6) for _ in range(4)])
    ys = rng.standard_normal((4, space.dim))
    ys *= (rng.uniform(0.2, 1.0, 4) / order_unit_norm(space, ys))[:, None]
    got = prep.bilinear(xs, ys)
    exact = jordan.quad_rep_bilinear(alg.product, xs, ys)
    worst = np.abs(got - exact).max(axis=(1, 2))
    assert np.all(worst <= 1e-12 * np.abs(exact).max(axis=(1, 2)))
    ambient = 0.5 * (prep(xs + ys) - prep(xs) - prep(ys))
    assert np.abs(got - ambient).max() <= 1e-8   # quad_rep_parallelogram's tolerance
    assert np.array_equal(prep.bilinear(xs[1], ys[1]), got[1])


def _perturbed_table(space, eps, seed=0):
    """Recovered(T + eps*B): T the builtin table, B a random symmetric bilinear
    term of max entry 1 that vanishes when either argument is the unit, so the
    unit law and commutativity hold exactly and only the Jordan identity breaks."""
    n, unit = space.dim, space.unit
    rng = np.random.default_rng(seed)
    off_unit = np.eye(n) - np.outer(unit, unit) / (unit @ unit)   # symmetric, kills the unit
    b = rng.standard_normal((n, n, n))
    b = np.einsum("ai,bj,abk->ijk", off_unit, off_unit, b + b.transpose(1, 0, 2))
    b /= np.abs(b).max()
    return Recovered(ProductTensor(n, unit.copy(), jordan.builtin_table(space.cone) + eps * b))


@pytest.mark.parametrize("cone", (Lorentz(5), SymPSD(3)), ids=str)
def test_a_perturbed_table_fails_cancellation_with_a_report(cone):
    space = make_space(cone)
    mutant = _perturbed_table(space, 0.0)
    report = verify_reconstruction(mutant, space, trials=5, seed=0)
    assert report.passed, [(p.name, p.max_residual, p.error) for p in report.failing()]
    mutant = _perturbed_table(space, 1e-4)
    # the unit law still holds: only the Jordan identity breaks
    assert mutant.product.unit_law_residual() <= 1e-15
    report = verify_reconstruction(mutant, space, trials=5, seed=0)
    assert not report.passed
    assert "cancellation_identity" in {p.name for p in report.failing()}


def test_symmetry_applies_no_identity_pre_map():
    space = make_space(Lorentz(4))
    spec = conjugated_inversion(space, 5)
    sym = symmetry_at(spec, space, sample_interior_rng(space, np.random.default_rng(25), 0.5))
    assert sym.pre is None
    wrapped = LinearConjugate(np.eye(space.dim), sym.inner, sym.post)
    pts = np.array([sample_interior_rng(space, np.random.default_rng(s), 0.8) for s in range(4)])
    assert np.array_equal(sym.apply(pts), wrapped.apply(pts))
    assert np.array_equal(sym.apply_inverse(pts), wrapped.apply_inverse(pts))
    back = map_from_json(map_to_json(sym))
    assert back.pre is None and np.array_equal(back.apply(pts), sym.apply(pts))


def test_a_symmetry_operator_inverts_only_the_derivative(monkeypatch):
    # the stacked symmetry properties take the operators alone; symmetry_at's
    # LinearConjugate also inverts them, for its apply_inverse
    space = make_space(Lorentz(5))
    spec = conjugated_inversion(space, 5)
    xs = np.array([sample_interior_rng(space, np.random.default_rng(s), 0.6) for s in range(3)])
    inverted = []

    def counting(a, _real=linalg.mat_inverse):
        inverted.append(np.shape(a))
        return _real(a)

    for module in (reconstruction, gauge_maps):
        monkeypatch.setattr(module, "mat_inverse", counting)
    post = reconstruction._symmetry_post(spec, space, xs)
    assert inverted == [(3, 5, 5)]
    sym = symmetry_at(spec, space, xs)
    assert inverted == [(3, 5, 5)] * 3
    assert np.array_equal(post, sym.post)


class _FencedInversion:
    """Inversion refusing points whose coordinates 1 and 2 differ by more than a bound.

    The error names the first refused gap, so a report shows which point raised.
    """

    def __init__(self, space, bound):
        self.inner = Inversion(builtin_algebra(space))
        self.bound = bound

    def apply(self, x):
        rows = np.atleast_2d(np.asarray(x, dtype=float))
        gap = rows[:, 1] - rows[:, 2]
        if (gap > self.bound).any():
            raise NotInteriorError(f"coordinate gap {gap[gap > self.bound][0]:.6f} above the fence")
        return self.inner.apply(x)

    def apply_inverse(self, y):
        return self.inner.apply_inverse(y)


_DOMAIN = "DerivativeDomainError: image difference left the open cone"
_NO_TENSOR = {name: _DOMAIN for name in (
    "hua_identity", "derivative_formula", "derivative_first_order_bound",
    "finite_difference_consistency", "fundamental_identity", "symmetry_involution",
    "symmetry_conjugation", "cancellation_identity", "quad_rep_at_unit", "quad_rep_parallelogram",
    "extracted_unit_law", "pipeline_vs_tensor", "geometric_series", "inversion_square_identity",
    "square_bounds", "quad_rep_positive", "quad_rep_norm", "derivative_local_bound",
    "derivative_continuity_bound", "tensor_qj1_unit", "tensor_qj2_triple",
    "tensor_qj3_composition", "tensor_nc1_submultiplicative", "tensor_nc2_square_norm",
    "tensor_nc3_square_monotone", "tensor_quad_rep_norm", "tensor_quad_rep_positive")}

# SHA-256 of the canonical JSON and the errors of each report at trials=12,
# seed=3, as the per-trial loops of round_trip, the symmetry properties and
# the tensor laws produced them, with P extended to the whole space by the
# second difference at the unit, and P(x, y) polarized at its interior x for
# the cancellation identity.  The fenced map raises inside the symmetry
# probes, the quadratic-representation properties, pipeline_vs_tensor and
# inversion_square_identity; every property draws all its trials before it
# evaluates any, so a property that raises leaves the rng past all of them,
# wherever the first failing trial sits.  The fenced map's digest holds the
# roundoff of the orthant's closed-form inverse.  A tensor law the failed
# extraction pins keeps its checker's trial count: tensor_qj1_unit reads 1.
BROKEN_REPORTS = {
    "cwpower2_orthant3": (
        lambda: (ComponentwisePower(2.0), make_space(Orthant(3))),
        "c95431cace53707ff23478bb88dcfa53ff0e6ca1a00adff2d2c294f9a2e77ce3", _NO_TENSOR),
    "identity_lorentz5": (
        lambda: (identity_map(), make_space(Lorentz(5))),
        "fdacd38a69b3a07db3a3b289ea9a4bfc5f3b12f9f2868c26ed868baae1b3525e", _NO_TENSOR),
    "fenced_orthant3": (
        lambda: (_FencedInversion(make_space(Orthant(3)), 1.1), make_space(Orthant(3))),
        "70c199a421513a5736de74e687dce02e0a9322b8d184132ee6ac4ae410c26dc1",
        {"fundamental_identity": "NotInteriorError: coordinate gap 1.224092 above the fence",
         "symmetry_involution": "NotInteriorError: coordinate gap 1.555574 above the fence",
         "symmetry_conjugation": "NotInteriorError: coordinate gap 1.485348 above the fence",
         "cancellation_identity": "NotInteriorError: coordinate gap 1.182376 above the fence",
         "quad_rep_parallelogram": "NotInteriorError: coordinate gap 1.168742 above the fence",
         "pipeline_vs_tensor": "NotInteriorError: coordinate gap 1.115072 above the fence",
         "inversion_square_identity": "NotInteriorError: coordinate gap 1.153296 above the fence"}),
}


@pytest.mark.parametrize("case, budget", [
    pytest.param(case, budget, id=case if budget is None else f"{case}-{budget}")
    for budget in (None, *BUDGETS) for case in BROKEN_REPORTS])
def test_broken_maps_report_the_per_trial_errors(case, budget, monkeypatch):
    make, digest, errors = BROKEN_REPORTS[case]
    map_spec, space = make()
    if budget is not None:
        # a raising block re-runs its own trials, wherever it starts
        monkeypatch.setattr(linalg, "STACK_ENTRIES", BUDGETS[budget](space.dim))
    report = verify_reconstruction(map_spec, space, trials=12, seed=3)
    assert {p.name: p.error for p in report.properties if p.error} == errors
    assert all(p.max_residual == math.inf for p in report.properties if p.error)
    assert hashlib.sha256(report.to_canonical_json().encode()).hexdigest() == digest


def _tensor_law_rows(report):
    return [(p.name, p.trials, p.tolerance) for p in report.properties
            if p.name.startswith("tensor_")]


def test_tensor_laws_pinned_by_a_failed_extraction_keep_the_checkers_rows():
    # names, trial counts and tolerances come from the checkers whether or not
    # the extraction they read succeeded
    space = make_space(Orthant(3))
    pinned = verify_reconstruction(identity_map(), space, trials=12, seed=3, tol=1e-9)
    computed = verify_reconstruction(Inversion(builtin_algebra(space)), space, trials=12,
                                     seed=3, tol=1e-9)
    laws = [p for p in pinned.properties if p.name.startswith("tensor_")]
    assert laws and all(p.max_residual == math.inf and p.error for p in laws)
    assert _tensor_law_rows(pinned) == _tensor_law_rows(computed)
    assert ("tensor_qj1_unit", 1, 1e-9) in _tensor_law_rows(pinned)
    assert ("tensor_nc1_submultiplicative", 12, 1e-8) in _tensor_law_rows(pinned)


# ------------------------------------------------- the symmetry properties
# Per-trial loops of symmetry_involution and symmetry_conjugation: one
# symmetry per base point, and each trial's probes sent as one stack.  A
# trial is what a raising block re-runs alone, so its probe stack raises what
# that stack raises, not what its first bad probe raises alone.

def _probe_loop(space, rng, size, residual):
    z = place_interior(space, np.array([draw_interior(space, rng, 0.8) for _ in range(size)]))
    return fold_max(residual(z))


def _involution_loop(map_spec, space, rng, count):
    worst = 0.0
    for _ in range(count):
        x = place_interior(space, draw_interior(space, rng, 0.6)[None])[0]
        sym = symmetry_at(map_spec, space, x)
        worst = max(worst, order_unit_norm(space, sym.apply(x) - x), _probe_loop(
            space, rng, 5, lambda z: order_unit_norm(space, sym.apply(sym.apply(z)) - z)))
    return worst


def _conjugation_loop(map_spec, space, rng, count):
    worst = 0.0
    for _ in range(count):
        x, y = place_interior(space, np.array([draw_interior(space, rng, 0.5),
                                               draw_interior(space, rng, 0.5)]))
        sx = symmetry_at(map_spec, space, x)
        sy = symmetry_at(map_spec, space, y)
        s_img = symmetry_at(map_spec, space, sx.apply(y))
        worst = max(worst, _probe_loop(space, rng, 20, lambda z: order_unit_norm(
            space, sx.apply(sy.apply(sx.apply(z))) - s_img.apply(z))))
    return worst


def _looped(loop, *args):
    try:
        return loop(*args), None
    except Exception as exc:
        return math.inf, f"{type(exc).__name__}: {exc}"


def _symmetry_cases():
    for cone in SWEEP_CONES:
        space = make_space(cone)
        yield str(cone), space, Inversion(builtin_algebra(space))
        yield f"{cone} conjugate", space, conjugated_inversion(space, 5)
    o3 = make_space(Orthant(3))
    yield "power 2", o3, ComponentwisePower(2.0)
    for bound in (0.6, 1.1):  # refusing base points, or probes only
        yield f"fence {bound}", o3, _FencedInversion(o3, bound)


@pytest.mark.parametrize("trials", (1, 12, 25))
def test_symmetry_properties_match_the_per_trial_loops(trials, monkeypatch):
    draws = []   # (radius, rng state before the draw) of every interior draw
    real = reconstruction.draw_interior

    def spy(space, rng, radius):
        draws.append((radius, rng.bit_generator.state))
        return real(space, rng, radius)

    monkeypatch.setattr(reconstruction, "draw_interior", spy)
    involution, conjugation = min(trials, 20), 3
    for name, space, spec in _symmetry_cases():
        draws.clear()
        report = verify_reconstruction(spec, space, trials=trials, seed=trials)
        got = {p.name: (p.max_residual, p.error) for p in report.properties}
        radii = [r for r, _ in draws]
        # symmetry_involution's first draw is the first base point (radius 0.6)
        # followed by a probe (0.8); every trial of both properties draws its
        # base points and probes, whether or not an earlier trial raised
        start = next(i for i in range(len(radii)) if radii[i:i + 2] == [0.6, 0.8])
        middle = start + 6 * involution
        after = middle + 22 * conjugation
        assert radii[start:after] == [0.6, *[0.8] * 5] * involution + \
            [0.5, 0.5, *[0.8] * 20] * conjugation, name
        rng = np.random.default_rng()
        for prop, loop, count, first, last in (
                ("symmetry_involution", _involution_loop, involution, start, middle),
                ("symmetry_conjugation", _conjugation_loop, conjugation, middle, after)):
            rng.bit_generator.state = draws[first][1]
            assert got[prop] == _looped(loop, spec, space, rng, count), (name, prop)
            if got[prop][1] is None:
                assert rng.bit_generator.state == draws[last][1], (name, prop)


def test_a_suite_call_builds_j_once_and_stacks_the_symmetries(monkeypatch):
    # inversion_j's own symmetry, whose operator is one symmetry-operator
    # stack, one more for symmetry_involution and two for symmetry_conjugation,
    # however many trials run; one probe set for every quadratic-representation
    # property and the extraction
    calls = []
    for name in ("inversion_j", "symmetry_at", "_symmetry_post", "_ProbeSet"):
        def counting(*args, _real=getattr(reconstruction, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(reconstruction, name, counting)
    space = make_space(Lorentz(5))
    spec = Inversion(builtin_algebra(space))
    for trials in (2, 25):
        calls.clear()
        assert verify_reconstruction(spec, space, trials=trials, seed=4).passed
        assert sorted(calls) == ["_ProbeSet"] + ["_symmetry_post"] * 4 + \
            ["inversion_j", "symmetry_at"], trials


@pytest.mark.parametrize("cone", (Lorentz(5), SymPSD(3)), ids=str)
def test_symmetry_properties_build_in_budget_sized_blocks(cone, monkeypatch):
    # the symmetry properties block their trials like every other property:
    # at a budget of one trial per block, each trial builds its own operators,
    # and the report stays byte-identical
    space = make_space(cone)
    spec = conjugated_inversion(space, 5)
    default = verify_reconstruction(spec, space, trials=5, seed=8).to_canonical_json()
    sizes = []

    def counting(map_spec, space, x, _real=reconstruction._symmetry_post):
        sizes.append(len(np.atleast_2d(x)))
        return _real(map_spec, space, x)

    monkeypatch.setattr(reconstruction, "_symmetry_post", counting)
    monkeypatch.setattr(linalg, "STACK_ENTRIES", space.dim ** 2)
    assert verify_reconstruction(spec, space, trials=5, seed=8).to_canonical_json() == default
    # inversion_j's, then one per symmetry_involution trial, then a stack of a
    # trial's two base points and one for its image per symmetry_conjugation trial
    assert sizes == [1] * 6 + [2, 1] * 3
