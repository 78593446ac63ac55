"""Gauge map specs and their verifiers."""

import dataclasses
import math

import numpy as np
import pytest

from symcone import (
    Compose,
    ComponentwisePower,
    DirectSum,
    Inversion,
    LinearConjugate,
    Lorentz,
    NotInteriorError,
    Orthant,
    PropertyResult,
    Recovered,
    SingularMatrixError,
    SymPSD,
    VerificationReport,
    builtin_algebra,
    check_state_gauge_identity,
    cone_contains,
    conjugated_inversion,
    gauge_M,
    identity_map,
    make_space,
    map_from_json,
    map_to_json,
    membership_slack,
    order_unit_norm,
    random_cone_automorphism,
    thompson_distance,
    verify_gauge_preserving,
    verify_gauge_reversing,
    verify_reconstruction,
)
from symcone.cones import (
    draw_interior,
    draw_positive,
    place_interior,
    place_positive,
    sample_interior_rng,
    sample_positive_rng,
)
from symcone.report import describe_error


def test_inversion_examples():
    o2 = make_space(Orthant(2))
    inv = Inversion(builtin_algebra(o2))
    np.testing.assert_allclose(inv.apply([2.0, 4.0]), [0.5, 0.25])
    np.testing.assert_allclose(inv.apply(o2.unit), o2.unit)
    np.testing.assert_allclose(inv.apply_inverse([0.5, 0.25]), [2.0, 4.0])
    with pytest.raises(NotInteriorError):
        inv.apply([1.0, 0.0])


def test_linear_conjugate_example():
    o2 = make_space(Orthant(2))
    inner = Inversion(builtin_algebra(o2))
    mp = LinearConjugate(np.diag([2.0, 1.0]), inner, np.eye(2))
    np.testing.assert_allclose(mp.apply([1.0, 1.0]), [0.5, 1.0])
    np.testing.assert_allclose(mp.apply_inverse(mp.apply([3.0, 0.5])), [3.0, 0.5],
                               atol=1e-14)


def test_linear_conjugate_refuses_singular_operators():
    inner = Inversion(builtin_algebra(make_space(Orthant(2))))
    for singular in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 1e-13])):
        for pre, post in ((None, singular), (np.eye(2), singular), (singular, np.eye(2))):
            with pytest.raises(SingularMatrixError):
                LinearConjugate(pre, inner, post)


def test_compose_empty_is_identity():
    ident = identity_map()
    x = np.array([0.3, 1.7])
    np.testing.assert_allclose(ident.apply(x), x)
    np.testing.assert_allclose(ident.apply_inverse(x), x)
    assert ident.parts == ()


def test_inversion_is_involution():
    rng = np.random.default_rng(0)
    for cone in (Orthant(4), Lorentz(4), SymPSD(2)):
        space = make_space(cone)
        inv = Inversion(builtin_algebra(space))
        for _ in range(100):
            x = sample_interior_rng(space, rng, 1.0)
            assert order_unit_norm(space, inv.apply(inv.apply(x)) - x) <= 1e-9


def test_first_order_bound_at_unit():
    rng = np.random.default_rng(1)
    for cone in (Orthant(3), Lorentz(4), SymPSD(2)):
        space = make_space(cone)
        inv = Inversion(builtin_algebra(space))
        unit = np.asarray(space.unit)
        for _ in range(60):
            y = sample_positive_rng(space, rng, rng.uniform(0.02, 0.5))
            gap = order_unit_norm(space, inv.apply(unit + y) - unit + y)
            assert gap <= order_unit_norm(space, y) ** 2 + 1e-9


def test_bi_lipschitz_on_metric_ball():
    rng = np.random.default_rng(2)
    radius = math.log(2.0)  # points in [v/2, 2v]
    for cone in (Orthant(3), SymPSD(2)):
        space = make_space(cone)
        inv = Inversion(builtin_algebra(space))
        for _ in range(40):
            x = sample_interior_rng(space, rng, radius)
            y = sample_interior_rng(space, rng, radius)
            fwd = order_unit_norm(space, inv.apply(x) - inv.apply(y))
            assert fwd <= 4.0 * order_unit_norm(space, x - y) + 1e-9


def test_reversing_checker_accepts_inversions():
    o3 = make_space(Orthant(3))
    report = verify_gauge_reversing(Inversion(builtin_algebra(o3)), o3, o3,
                                    trials=200, seed=3, tol=1e-9)
    assert report.passed, [p.name for p in report.failing()]
    p2 = make_space(SymPSD(2))
    report = verify_gauge_reversing(Inversion(builtin_algebra(p2)), p2, p2,
                                    trials=100, seed=3, tol=1e-7)
    assert report.passed, [p.name for p in report.failing()]


def test_identity_fails_reversing_checker():
    o3 = make_space(Orthant(3))
    report = verify_gauge_reversing(identity_map(), o3, o3, trials=50, seed=3, tol=1e-3)
    assert not report.passed
    failing = {p.name for p in report.failing()}
    assert "gauge_reversal" in failing


def test_preserving_checker():
    o2 = make_space(Orthant(2))
    alg = builtin_algebra(o2)
    scaling = LinearConjugate(np.diag([4.0, 1.0]), identity_map(), np.eye(2))
    report = verify_gauge_preserving(scaling, o2, o2, trials=60, seed=3, tol=1e-9)
    assert report.passed
    report = verify_gauge_preserving(Inversion(alg), o2, o2, trials=40, seed=3, tol=1e-3)
    assert not report.passed
    double_inv = Compose((Inversion(alg), Inversion(alg)))
    report = verify_gauge_preserving(double_inv, o2, o2, trials=60, seed=3, tol=1e-9)
    assert report.passed


def test_conjugated_inversion_moves_unit_and_reverses():
    for cone in (Orthant(4), Lorentz(4), SymPSD(2)):
        space = make_space(cone)
        mp = conjugated_inversion(space, 11)
        assert order_unit_norm(space, mp.apply(space.unit) - space.unit) > 1e-3
        report = verify_gauge_reversing(mp, space, space, trials=80, seed=3, tol=1e-9)
        assert report.passed, (cone, [p.name for p in report.failing()])


def test_automorphisms_preserve_cone():
    rng = np.random.default_rng(4)
    for cone in (Orthant(4), Lorentz(4), SymPSD(3)):
        space = make_space(cone)
        for seed in range(5):
            mat = random_cone_automorphism(cone, seed)
            assert np.linalg.cond(mat) <= 4.0
            inv_mat = np.linalg.inv(mat)
            for _ in range(20):
                x = sample_interior_rng(space, rng, 1.2)
                assert cone_contains(cone, mat @ x, 0.0)
                assert cone_contains(cone, inv_mat @ x, 0.0)


def test_power_map_is_order_reversing_but_wrong_degree():
    o3 = make_space(Orthant(3))
    pw = ComponentwisePower(-3.0)
    report = verify_gauge_reversing(pw, o3, o3, trials=50, seed=3, tol=1e-3)
    assert not report.passed
    failing = {p.name for p in report.failing()}
    assert "homogeneity_deg_minus_one" in failing
    assert "order_reversal" not in failing  # it does reverse order


class _NoImage:
    def apply(self, x):
        raise NotInteriorError("no image")

    apply_inverse = apply


class _NoInverse:
    def apply(self, x):
        return 1.0 / np.asarray(x, dtype=float)

    def apply_inverse(self, y):
        raise NotInteriorError("no preimage")


def _without_errors(report):
    return VerificationReport.from_properties(
        report.suite, report.seed,
        [dataclasses.replace(p, error=None) for p in report.properties])


@pytest.mark.parametrize("verify", [verify_gauge_reversing, verify_gauge_preserving])
def test_infinite_residuals_name_their_exception(verify):
    o2 = make_space(Orthant(2))
    report = verify(_NoImage(), o2, o2, trials=3, seed=1)
    assert report.properties and not report.passed
    for p in report.properties:
        assert p.max_residual == math.inf
        assert p.error == "NotInteriorError: no image", p.name
    assert report.to_canonical_json() == _without_errors(report).to_canonical_json()

    report = verify(_NoInverse(), o2, o2, trials=3, seed=1)
    errors = {p.name: p.error for p in report.properties if p.error is not None}
    assert errors == {"round_trip": "NotInteriorError: no preimage"}
    assert report.properties[0].max_residual == math.inf
    assert report.to_canonical_json() == _without_errors(report).to_canonical_json()


def test_map_json_roundtrip():
    o2 = make_space(Orthant(2))
    alg = builtin_algebra(o2)
    mp = LinearConjugate(np.diag([2.0, 1.0]), Inversion(alg), np.eye(2))
    specs = [Inversion(alg), mp, Compose((Inversion(alg), Inversion(alg))),
             identity_map(), ComponentwisePower(-3.0)]
    x = np.array([0.8, 1.3])
    for spec in specs:
        back = map_from_json(map_to_json(spec))
        np.testing.assert_allclose(back.apply(x), spec.apply(x), atol=1e-14)


# ------------------------------------------------------------- point stacks

STACK_CONES = (Orthant(3), Lorentz(4), SymPSD(2), DirectSum((SymPSD(2), Lorentz(3), Orthant(1))))


def _stack_specs(space):
    alg = builtin_algebra(space)
    conj = conjugated_inversion(space, 5)
    return [Inversion(alg), conj, Compose((Inversion(alg), conj)), identity_map(),
            Recovered(alg.product)]


def _close_rows(stacked, rows):
    rows = np.array(rows)
    assert stacked.shape == rows.shape
    assert np.abs(stacked - rows).max() <= 1e-13 * np.abs(rows).max()


@pytest.mark.parametrize("cone", STACK_CONES, ids=str)
def test_stacked_maps_match_row_by_row(cone):
    space = make_space(cone)
    rng = np.random.default_rng(11)
    pts = np.array([sample_interior_rng(space, rng, 0.8) for _ in range(5)])
    for spec in _stack_specs(space):
        images = spec.apply(pts)
        _close_rows(images, [spec.apply(x) for x in pts])
        _close_rows(spec.apply_inverse(images), [spec.apply_inverse(y) for y in images])
    # the power control lives on the open orthant whatever the cone
    pw = ComponentwisePower(-3.0)
    pos = np.abs(pts) + 0.1
    _close_rows(pw.apply(pos), [pw.apply(x) for x in pos])
    _close_rows(pw.apply_inverse(pos), [pw.apply_inverse(y) for y in pos])


BOUNDARY = {Orthant(3): [1.0, 0.0, 2.0], Lorentz(4): [1.0, 0.6, 0.8, 0.0],
            SymPSD(2): [1.0, 0.0, 0.0]}


@pytest.mark.parametrize("cone", STACK_CONES, ids=str)
def test_stack_with_a_boundary_row_is_refused(cone):
    space = make_space(cone)
    rng = np.random.default_rng(12)
    pts = np.array([sample_interior_rng(space, rng, 0.8) for _ in range(3)])
    if isinstance(cone, DirectSum):
        pts[1, :3] = BOUNDARY[SymPSD(2)]
    else:
        pts[1] = BOUNDARY[cone]
    inv = Inversion(builtin_algebra(space))
    inv.apply(pts[[0, 2]])
    with pytest.raises(NotInteriorError):
        inv.apply(pts)
    with pytest.raises(NotInteriorError):
        inv.apply(pts[1])


# ------------------------------------------------------------ stacked suites
# The gauge suites evaluate each property once over the stack of all trials;
# the loops below are the same suites one trial at a time, which they must
# equal.

HOMOGENEITY_SCALES = (0.5, 2.0, 7.0)


def _fold_checks(worst, errors, checks):
    """Fold (name, evaluation) pairs into running maxima; an error pins inf."""
    for name, fn in checks:
        if math.isinf(worst[name]):
            continue
        try:
            worst[name] = max(worst[name], fn())
        except Exception as exc:
            worst[name] = math.inf
            errors[name] = describe_error(exc)


def _loop_report(suite, seed, trials, tol, worst, errors):
    props = [PropertyResult.from_residual(name, trials, r, tol, errors.get(name))
             for name, r in worst.items()]
    return VerificationReport.from_properties(suite, seed, props)


def _suite_samples(space, trials, seed, reversing):
    """Each trial's x, y, order test cone element and convexity weight, placed one by one.

    The draws are the suites': x and y in alternate rows of one stack, then
    the order test's scales and cone elements and, reversing, the weights.
    """
    rng = np.random.default_rng(seed)
    xy = draw_interior(space, rng, 0.6, 2 * trials)
    scales = rng.uniform(0.1, 0.8, trials)
    positive = draw_positive(space, rng, trials)
    weights = rng.uniform(0.0, 1.0, trials) if reversing else np.zeros(trials)
    return [(*(place_interior(space, xy[2 * i + k][None])[0] for k in (0, 1)),
             place_positive(space, positive[i][None], scales[i])[0], weights[i])
            for i in range(trials)]


def _reversing_loop(map_spec, space_src, space_dst, trials, seed, tol):
    """verify_gauge_reversing as a loop of single trials over its draws."""
    lam = math.exp(0.6)
    # a gauge factor that cannot be computed pins the Lipschitz bound with its error
    try:
        kappa = gauge_M(space_dst, map_spec.apply(np.asarray(space_src.unit)),
                        np.asarray(space_dst.unit))
    except Exception as exc:
        kappa = exc

    worst = dict.fromkeys(("round_trip", "gauge_reversal", "homogeneity_deg_minus_one",
                           "order_reversal", "thompson_isometry", "convexity",
                           "metric_ball_lipschitz"), 0.0)
    errors = {}
    for x, y, p, t in _suite_samples(space_src, trials, seed, True):
        try:
            fx = map_spec.apply(x)
            fy = map_spec.apply(y)
        except Exception as exc:
            worst = dict.fromkeys(worst, math.inf)
            errors = dict.fromkeys(worst, describe_error(exc))
            break

        def _round():
            return order_unit_norm(space_src, map_spec.apply_inverse(fx) - x)

        def _gauge():
            m_ref = gauge_M(space_src, y, x)
            return abs(gauge_M(space_dst, fx, fy) - m_ref) / m_ref

        def _homog():
            worst = 0.0
            for lam_s in HOMOGENEITY_SCALES:
                dev = order_unit_norm(space_dst, map_spec.apply(lam_s * x) - fx / lam_s)
                worst = max(worst, dev / (1.0 + order_unit_norm(space_dst, fx) / lam_s))
            return worst

        def _order():
            slack = membership_slack(space_dst.cone, fx - map_spec.apply(x + p))
            return max(0.0, -slack)

        def _isom():
            return abs(thompson_distance(space_dst, fx, fy)
                       - thompson_distance(space_src, x, y))

        def _convex():
            mix = map_spec.apply((1.0 - t) * x + t * y)
            slack = membership_slack(space_dst.cone, (1.0 - t) * fx + t * fy - mix)
            return max(0.0, -slack)

        def _lip():
            if isinstance(kappa, Exception):
                raise kappa
            return order_unit_norm(space_dst, fx - fy) \
                - kappa * lam * lam * order_unit_norm(space_src, x - y)

        _fold_checks(worst, errors, zip(worst, (_round, _gauge, _homog, _order, _isom,
                                                _convex, _lip)))
    return _loop_report(f"gauge_reversing:{space_src.cone.label}", seed, trials, tol,
                        worst, errors)


def _preserving_loop(map_spec, space_src, space_dst, trials, seed, tol):
    """verify_gauge_preserving as a loop of single trials over its draws."""
    worst = dict.fromkeys(("round_trip", "gauge_preservation", "homogeneity_deg_plus_one",
                           "order_preservation", "thompson_isometry"), 0.0)
    errors = {}
    for x, y, p, _ in _suite_samples(space_src, trials, seed, False):
        try:
            fx = map_spec.apply(x)
            fy = map_spec.apply(y)
        except Exception as exc:
            worst = dict.fromkeys(worst, math.inf)
            errors = dict.fromkeys(worst, describe_error(exc))
            break

        def _round():
            return order_unit_norm(space_src, map_spec.apply_inverse(fx) - x)

        def _gauge():
            m_ref = gauge_M(space_src, x, y)
            return abs(gauge_M(space_dst, fx, fy) - m_ref) / m_ref

        def _homog():
            worst = 0.0
            for lam_s in HOMOGENEITY_SCALES:
                dev = order_unit_norm(space_dst, map_spec.apply(lam_s * x) - lam_s * fx)
                worst = max(worst, dev / (1.0 + lam_s * order_unit_norm(space_dst, fx)))
            return worst

        def _order():
            slack = membership_slack(space_dst.cone, map_spec.apply(x + p) - fx)
            return max(0.0, -slack)

        def _isom():
            return abs(thompson_distance(space_dst, fx, fy)
                       - thompson_distance(space_src, x, y))

        _fold_checks(worst, errors, zip(worst, (_round, _gauge, _homog, _order, _isom)))
    return _loop_report(f"gauge_preserving:{space_src.cone.label}", seed, trials, tol,
                        worst, errors)


def _negated_inversion(space):
    """x -> -x^-1: images off the cone, so the gauge factor f(e) = -e has no gauge."""
    return LinearConjugate(None, Inversion(builtin_algebra(space)), -np.eye(space.dim))


def _suite_specs(space):
    alg = builtin_algebra(space)
    specs = [Inversion(alg), conjugated_inversion(space, 5), identity_map(), _NoImage(),
             _negated_inversion(space)]
    if isinstance(space.cone, Orthant):
        specs += [ComponentwisePower(-3.0), _NoInverse()]
    return specs


SUITE_CONES = (Orthant(3), Lorentz(4), SymPSD(2), STACK_CONES[-1])


@pytest.mark.parametrize("cone", SUITE_CONES, ids=str)
def test_gauge_suites_match_the_per_trial_loops(cone):
    space = make_space(cone)
    for spec in _suite_specs(space):
        for trials in (1, 3, 40):
            for verify, loop in ((verify_gauge_reversing, _reversing_loop),
                                 (verify_gauge_preserving, _preserving_loop)):
                stacked = verify(spec, space, space, trials=trials, seed=trials, tol=1e-9)
                looped = loop(spec, space, space, trials, trials, 1e-9)
                assert stacked.to_canonical_json() == looped.to_canonical_json(), (spec, trials)
                assert stacked.to_text() == looped.to_text(), (spec, trials)


def test_a_gauge_factor_that_cannot_be_computed_fails_the_lipschitz_bound():
    space = make_space(Lorentz(3))
    spec = _negated_inversion(space)
    with pytest.raises(NotInteriorError) as info:
        gauge_M(space, spec.apply(space.unit), space.unit)
    report = verify_gauge_reversing(spec, space, space, trials=5, seed=0)
    lipschitz = {p.name: p for p in report.properties}["metric_ball_lipschitz"]
    assert (lipschitz.max_residual, lipschitz.passed, lipschitz.error) == \
        (math.inf, False, describe_error(info.value))


class _Fenced:
    """Orthant inversion refusing rows whose coordinate sum passes a fence.

    The message names the last refused row of the call, so that a stack
    refused on several trials names another row than its first trial does.
    """

    def __init__(self, fence):
        self.fence = fence

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, x.shape[-1])
        refused = rows[rows.sum(axis=-1) > self.fence]
        if len(refused):
            raise NotInteriorError(f"refused row {refused[-1].tolist()}")
        return 1.0 / x

    apply_inverse = apply


def _first_refusal(fenced, stacks):
    """The first trial refusing a row of its stack, and the error naming its last one."""
    for i, rows in enumerate(stacks):
        refused = [r for r in rows if r.sum() > fenced.fence]
        if refused:
            return i, f"NotInteriorError: refused row {refused[-1].tolist()}"
    return None


@pytest.mark.parametrize("reversing", [True, False])
def test_raising_rows_report_the_first_failing_trial(reversing):
    o3 = make_space(Orthant(3))
    verify = verify_gauge_reversing if reversing else verify_gauge_preserving
    # the first seed whose draws the two fences below split as described
    trials, seed = 40, 12
    xs, ys, ps, _ = zip(*_suite_samples(o3, trials, seed, reversing))

    # the fence keeps the images of x and y but refuses some inverses,
    # scaled points and order test points
    fenced = _Fenced(4.5)
    order = "order_reversal" if reversing else "order_preservation"
    homogeneity = "homogeneity_deg_minus_one" if reversing else "homogeneity_deg_plus_one"
    first = {
        "round_trip": _first_refusal(fenced, [[1.0 / x] for x in xs]),
        homogeneity: _first_refusal(fenced, [[s * x for s in HOMOGENEITY_SCALES] for x in xs]),
        order: _first_refusal(fenced, [[x + p] for x, p in zip(xs, ps)]),
    }
    # the inverses and order test points are first refused after the first trial
    assert first["round_trip"][0] > 0 and first[order][0] > 0, first
    report = verify(fenced, o3, o3, trials=trials, seed=seed)
    assert {p.name: (p.max_residual, p.error) for p in report.properties if p.error} == \
        {name: (math.inf, error) for name, (_, error) in first.items()}

    # a fence refusing some x or y pins every property at the first of them
    fenced = _Fenced(3.7)
    trial, error = _first_refusal(fenced, [[x, y] for x, y in zip(xs, ys)])
    assert trial > 0
    report = verify(fenced, o3, o3, trials=trials, seed=seed)
    assert {(p.max_residual, p.error) for p in report.properties} == {(math.inf, error)}


class _Recording:
    """Orthant inversion recording the shape of every point or stack it maps."""

    def __init__(self):
        self.shapes = []

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        self.shapes.append(x.shape)
        return 1.0 / x

    apply_inverse = apply


@pytest.mark.parametrize("trials", [1, 6])
def test_gauge_suites_map_whole_stacks(trials):
    o3 = make_space(Orthant(3))
    preserving, reversing = _Recording(), _Recording()
    verify_gauge_preserving(preserving, o3, o3, trials=trials, seed=2)
    verify_gauge_reversing(reversing, o3, o3, trials=trials, seed=2)
    # x and y interleaved, then round trip, homogeneity at three scales and order
    stacks = [(2 * trials, 3), (trials, 3), (3 * trials, 3), (trials, 3)]
    assert preserving.shapes == stacks
    # the unit alone first, for the gauge factor of the Lipschitz bound; convexity last
    assert reversing.shapes == [(3,), *stacks, (trials, 3)]


class _Overflowing:
    """Orthant inversion returning inf, not raising, at rows with x_0 > 1.3."""

    def __init__(self, space):
        self.inversion = Inversion(builtin_algebra(space))

    def apply(self, x):
        return np.where(np.asarray(x)[..., :1] > 1.3, np.inf, self.inversion.apply(x))

    apply_inverse = apply


def test_a_map_overflowing_to_inf_is_reported_not_passed_or_raised():
    o3 = make_space(Orthant(3))
    spec = _Overflowing(o3)
    # the inf images make NaN residuals, whose RuntimeWarnings pytest turns into errors
    with np.errstate(all="ignore"):
        state = check_state_gauge_identity(spec, o3, trials=20, seed=1)
        suites = [verify(spec, o3, o3, trials=20, seed=1)
                  for verify in (verify_gauge_reversing, verify_gauge_preserving)]
        suites.append(verify_reconstruction(spec, o3, trials=20, seed=1))
    # a NaN residual fails its property rather than being skipped by the fold
    identity = state.properties[-1]
    assert identity.name == "state_gauge_identity" and math.isnan(identity.max_residual)
    assert not identity.passed and not state.passed
    # the gauge suites pin what the reconstruction suite pins, where they raised before
    for report in suites:
        first = report.properties[0]
        assert (first.name, first.max_residual, first.error) == \
            ("round_trip", math.inf, "ValueError: vector coordinates must be finite")
