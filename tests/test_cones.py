"""Cone membership, norms, gauges, Thompson metric, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcone import (
    DimensionMismatchError,
    DirectSum,
    Lorentz,
    NotInteriorError,
    Orthant,
    SymPSD,
    cone_contains,
    cone_from_json,
    cone_to_json,
    gauge_M,
    gauge_M_bisect,
    gauge_m,
    gauge_m_bisect,
    make_space,
    membership_slack,
    order_unit_norm,
    order_unit_norm_bisect,
    PropertyResult,
    VerificationReport,
    sample_interior,
    smat,
    svec,
    thompson_distance,
    verify_cone_geometry,
)
from symcone import cones
from symcone.cones import (
    INTERIOR_MARGIN,
    draw_interior,
    draw_positive,
    place_interior,
    place_positive,
    sample_interior_rng,
    sample_positive_rng,
    scale_directions,
)

FAMILIES = [Orthant(3), Lorentz(4), SymPSD(2), DirectSum((Orthant(2), Lorentz(3)))]


def spaces():
    return [make_space(c) for c in FAMILIES]


# ---------------------------------------------------------------- membership

def test_membership_examples():
    assert cone_contains(Orthant(2), [1.0, 2.0], 0.0)
    assert not cone_contains(Lorentz(3), [1.0, 1.0, 0.0], 1e-9)  # boundary point
    x = svec(np.array([[2.0, 0.0], [0.0, -1.0]]))  # eigenvalues 2 and -1
    assert not cone_contains(SymPSD(2), x, 0.0)


def test_margin_semantics():
    boundary = [0.0, 1.0]
    assert cone_contains(Orthant(2), boundary, 0.0)
    assert not cone_contains(Orthant(2), boundary, 1e-12)
    assert cone_contains(Orthant(2), [-1e-11, 1.0], -1e-10)
    assert not cone_contains(Orthant(2), [-1e-9, 1.0], -1e-10)


def test_membership_scaling_invariance():
    rng = np.random.default_rng(0)
    for space in spaces():
        for _ in range(20):
            x = sample_interior_rng(space, rng, 1.0)
            for lam in (0.25, 3.0):
                assert cone_contains(space.cone, lam * x, 0.0)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        cone_contains(Orthant(3), [1.0, 2.0], 0.0)


def test_membership_of_a_stack_is_the_per_row_slacks():
    rng = np.random.default_rng(7)
    psd_sum = DirectSum((SymPSD(3), Lorentz(4), Orthant(2)))
    for space in spaces() + [make_space(psd_sum)]:
        stack = np.array([sample_interior_rng(space, rng, 1.5) for _ in range(6)])
        stack[1] = -stack[1]  # an exterior row
        slacks = membership_slack(space.cone, stack)
        assert slacks.shape == (6,)
        rows = [membership_slack(space.cone, x) for x in stack]
        assert all(type(r) is float for r in rows)
        assert slacks.tolist() == rows


GAUGE_ROUTINES = (
    ("order_unit_norm", lambda sp, x, y: order_unit_norm(sp, x, unit=y)),
    ("order_unit_norm_bisect", lambda sp, x, y: order_unit_norm_bisect(sp, x, unit=y)),
    ("gauge_M", gauge_M),
    ("gauge_m", gauge_m),
    ("gauge_M_bisect", gauge_M_bisect),
    ("gauge_m_bisect", gauge_m_bisect),
    ("thompson_distance", thompson_distance),
)


def test_gauge_routines_take_stacks_and_reject_bad_shapes():
    space = make_space(Orthant(3))
    stack = np.array([[1.0, 2.0, 3.0], [0.5, 0.25, 4.0]])
    norms = order_unit_norm(space, stack)
    assert isinstance(norms, np.ndarray) and norms.tolist() == [3.0, 4.0]
    gauges = gauge_M(space, stack, space.unit)
    assert gauges.tolist() == [gauge_M(space, x, space.unit) for x in stack]
    with pytest.raises(DimensionMismatchError):
        make_space(Orthant(3), np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        membership_slack(Orthant(3), np.ones((2, 2, 3)))
    point = np.ones(3)
    bad = {"3-D": np.ones((2, 2, 3)), "wrong length": np.ones(4),
           "wrong row length": np.ones((2, 4)), "other stack length": np.ones((3, 3))}
    for name, routine in GAUGE_ROUTINES:
        for label, arg in bad.items():
            second = stack if label == "other stack length" else point
            for args in ((arg, second), (second, arg)):
                with pytest.raises(DimensionMismatchError):
                    routine(space, *args)


def test_block_slices_tile_the_sum_in_order():
    for cone in (DirectSum((Orthant(2), Lorentz(3))),
                 DirectSum((SymPSD(3), Lorentz(4), Orthant(2))),
                 DirectSum((DirectSum((Orthant(1), SymPSD(2))), Lorentz(2)))):
        slices = cone.slices
        assert isinstance(slices, tuple)
        assert slices[0].start == 0 and slices[-1].stop == cone.dim
        for part, sl, nxt in zip(cone.parts, slices, slices[1:] + (None,)):
            assert sl.stop - sl.start == part.dim
            assert nxt is None or nxt.start == sl.stop
        assert cone.slices is slices  # computed once per sum


# ----------------------------------------------------------- svec and smat

def test_svec_roundtrip_and_isometry():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 5):
        a = rng.standard_normal((d, d))
        a = a + a.T
        b = rng.standard_normal((d, d))
        b = b + b.T
        np.testing.assert_allclose(smat(svec(a)), a, atol=1e-14)
        assert abs(svec(a) @ svec(b) - np.trace(a @ b)) < 1e-12


def _svec_loop(mat):
    d = mat.shape[0]
    out = []
    for i in range(d):
        out.append(mat[i, i])
        for j in range(i + 1, d):
            out.append(math.sqrt(2.0) * 0.5 * (mat[i, j] + mat[j, i]))
    return np.array(out)


def _smat_loop(vec):
    d = int((math.isqrt(8 * len(vec) + 1) - 1) // 2)
    out = np.empty((d, d))
    k = 0
    for i in range(d):
        out[i, i] = vec[k]
        k += 1
        for j in range(i + 1, d):
            out[i, j] = out[j, i] = vec[k] / math.sqrt(2.0)
            k += 1
    return out


def test_svec_smat_match_elementwise_loops():
    rng = np.random.default_rng(4)
    for d in range(1, 7):
        a = rng.standard_normal((d, d))  # not symmetric: svec symmetrizes
        assert np.array_equal(svec(a), _svec_loop(a))
        v = rng.standard_normal(d * (d + 1) // 2)
        assert np.array_equal(smat(v), _smat_loop(v))
        sym = a + a.T
        np.testing.assert_allclose(smat(svec(sym)), sym, rtol=1e-15, atol=0.0)


def test_smat_rejects_non_triangular_length():
    with pytest.raises(DimensionMismatchError):
        smat(np.ones(5))


# -------------------------------------------------------------------- norms

def test_norm_examples():
    o2 = make_space(Orthant(2))
    assert order_unit_norm(o2, [2.0, -1.0]) == pytest.approx(2.0, abs=1e-12)
    assert order_unit_norm_bisect(o2, [2.0, -1.0]) == pytest.approx(2.0, abs=1e-12)
    l3 = make_space(Lorentz(3))
    # both boundary eigenvalues 2 +- 1 contribute; the larger magnitude is 3
    assert order_unit_norm(l3, [2.0, 1.0, 0.0]) == pytest.approx(3.0, abs=1e-12)
    for space in spaces():
        assert order_unit_norm(space, space.unit) == pytest.approx(1.0, abs=1e-12)
    assert order_unit_norm(o2, [0.0, 0.0]) == 0.0


def test_norm_closed_form_agrees_with_bisection():
    rng = np.random.default_rng(2)
    for space in spaces():
        for _ in range(15):
            z = rng.standard_normal(space.dim)
            a = order_unit_norm(space, z)
            b = order_unit_norm_bisect(space, z)
            assert abs(a - b) <= 1e-9 * max(a, 1.0)


def test_local_norm_with_nondefault_unit():
    rng = np.random.default_rng(3)
    for space in spaces():
        for _ in range(10):
            u = sample_interior_rng(space, rng, 1.0)
            z = rng.standard_normal(space.dim)
            a = order_unit_norm(space, z, unit=u)
            b = order_unit_norm_bisect(space, z, unit=u)
            assert abs(a - b) <= 1e-9 * max(a, 1.0)


# ------------------------------------------------------------------- gauges

def test_gauge_examples():
    o2 = make_space(Orthant(2))
    assert gauge_M(o2, [2.0, 1.0], [1.0, 3.0]) == pytest.approx(2.0, abs=1e-12)
    assert gauge_m(o2, [2.0, 1.0], [1.0, 3.0]) == pytest.approx(1.0 / 3.0, abs=1e-12)
    x = np.array([0.7, 1.4])
    assert gauge_M(o2, x, x) == pytest.approx(1.0, abs=1e-12)
    assert gauge_m(o2, x, x) == pytest.approx(1.0, abs=1e-12)
    o1 = make_space(Orthant(1))
    assert gauge_m(o1, [4.0], [2.0]) == pytest.approx(2.0, abs=1e-12)
    p2 = make_space(SymPSD(2))
    # generalized eigenvalues of (I, diag(2,1)) are 1/2 and 1
    assert gauge_M(p2, svec(np.eye(2)), svec(np.diag([2.0, 1.0]))) == \
        pytest.approx(1.0, abs=1e-12)


def test_gauge_reciprocity_sampled():
    rng = np.random.default_rng(4)
    for space in spaces():
        for _ in range(30):
            x = sample_interior_rng(space, rng, 0.8)
            y = sample_interior_rng(space, rng, 0.8)
            assert abs(gauge_m(space, y, x) * gauge_M(space, x, y) - 1.0) <= 1e-10


def test_gauge_arithmetic_identities():
    rng = np.random.default_rng(5)
    for space in spaces():
        for _ in range(25):
            x = sample_interior_rng(space, rng, 0.7)
            y = sample_interior_rng(space, rng, 0.7)
            alpha, beta = rng.uniform(0.3, 2.5, size=2)
            gamma = 0.9 * alpha * gauge_m(space, x, y)
            m_yx = gauge_m(space, y, x)
            big_m_yx = gauge_M(space, y, x)
            assert gauge_M(space, alpha * x + beta * y, x) == \
                pytest.approx(alpha + beta * big_m_yx, rel=1e-9)
            assert gauge_m(space, alpha * x + beta * y, x) == \
                pytest.approx(alpha + beta * m_yx, rel=1e-9)
            assert gauge_m(space, alpha * x - gamma * y, x) == \
                pytest.approx(alpha - gamma * big_m_yx, rel=1e-9, abs=1e-9)
            assert gauge_M(space, alpha * x - gamma * y, x) == \
                pytest.approx(alpha - gamma * m_yx, rel=1e-9, abs=1e-9)


def test_gauge_closed_form_vs_bisection():
    rng = np.random.default_rng(6)
    for space in spaces():
        for _ in range(12):
            x = sample_interior_rng(space, rng, 0.8)
            y = sample_interior_rng(space, rng, 0.8)
            m_closed = gauge_M(space, x, y)
            assert abs(gauge_M_bisect(space, x, y) - m_closed) <= 1e-9 * m_closed
            lo = gauge_m(space, x, y)
            assert abs(gauge_m_bisect(space, x, y) - lo) <= 1e-9 * max(lo, 1e-12)


def test_gauges_reject_bad_inputs():
    o2 = make_space(Orthant(2))
    with pytest.raises(NotInteriorError):
        gauge_M(o2, [0.0, 0.0], [1.0, 1.0])  # zero vector
    with pytest.raises(NotInteriorError):
        gauge_M(o2, [1.0, 1.0], [1.0, 0.0])  # boundary reference
    with pytest.raises(NotInteriorError):
        gauge_M(o2, [-1.0, 1.0], [1.0, 1.0])  # outside the cone


# --------------------------------------------------------- Thompson metric

def test_thompson_examples():
    o2 = make_space(Orthant(2))
    assert thompson_distance(o2, [2.0, 1.0], [1.0, 3.0]) == \
        pytest.approx(math.log(3.0), abs=1e-12)
    x = np.array([0.4, 2.5])
    assert thompson_distance(o2, x, x) == 0.0
    assert thompson_distance(o2, x, 5.0 * x) == pytest.approx(math.log(5.0), abs=1e-12)


def test_thompson_metric_axioms():
    rng = np.random.default_rng(7)
    for space in spaces():
        for _ in range(20):
            x = sample_interior_rng(space, rng, 0.7)
            y = sample_interior_rng(space, rng, 0.7)
            z = sample_interior_rng(space, rng, 0.7)
            dxy = thompson_distance(space, x, y)
            assert dxy == thompson_distance(space, y, x)
            assert dxy >= 0.0
            assert dxy <= thompson_distance(space, x, z) + \
                thompson_distance(space, z, y) + 1e-10
            for lam in (0.1, 7.0):
                assert abs(thompson_distance(space, lam * x, lam * y) - dxy) <= 1e-12


def test_norm_metric_comparison_lemmas():
    rng = np.random.default_rng(8)
    radius = 0.7
    lam = math.exp(radius)
    for space in spaces():
        for _ in range(25):
            x = sample_interior_rng(space, rng, radius)
            y = sample_interior_rng(space, rng, radius)
            dxy = thompson_distance(space, x, y)
            nxy = order_unit_norm(space, x - y)
            # points stay within [lam^-1 v, lam v] by construction
            assert dxy <= lam * nxy + 1e-10
            assert nxy <= lam * dxy + 1e-10


def test_thompson_rejects_boundary():
    o2 = make_space(Orthant(2))
    with pytest.raises(NotInteriorError):
        thompson_distance(o2, [1.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("scale", (1e160, 1e-170, 2.0 ** 530, 2.0 ** -565), ids=str)
def test_lorentz_gauges_hold_at_extreme_scales(scale):
    # q(y) and b^2 - q(y) q(z) of the unscaled pair overflow at 1e160 and
    # underflow at 1e-170; at a power of two the values are the same bits
    space = make_space(Lorentz(3))
    x, y = np.array([2.0, 0.5, 0.0]), np.array([1.0, 0.1, 0.2])

    def values(s):
        return (gauge_M(space, s * x, s * y), gauge_m(space, s * x, s * y),
                thompson_distance(space, s * x, s * y),
                order_unit_norm(space, s * x) / s, order_unit_norm(space, s * x, s * y))

    with np.errstate(all="raise"):
        got = values(scale)
    if math.frexp(scale)[0] == 0.5:
        assert got == values(1.0)
    else:
        assert got == pytest.approx(values(1.0), rel=1e-14)


# ----------------------------------------------------------------- sampling

def test_sampling_determinism_and_radius():
    for space in spaces():
        a = sample_interior(space, 42, 1.0)
        b = sample_interior(space, 42, 1.0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_interior(space, 43, 1.0))
        assert np.array_equal(sample_interior(space, 42, 0.0), space.unit)
        for seed in range(10):
            x = sample_interior(space, seed, 1.0)
            assert membership_slack(space.cone, x) > 0.0
            assert thompson_distance(space, space.unit, x) <= 1.0 + 1e-12


def test_sampling_orthant_band():
    x = sample_interior(make_space(Orthant(3)), 42, 1.0)
    assert np.all(x >= math.exp(-1.0)) and np.all(x <= math.exp(1.0))


def test_make_space_rejects_boundary_unit():
    with pytest.raises(NotInteriorError):
        make_space(Orthant(2), [1.0, 0.0])


# ----------------------------------------------------------- JSON and suite

def test_cone_json_roundtrip():
    for cone in FAMILIES:
        assert cone_from_json(cone_to_json(cone)) == cone


def test_geometry_suite_passes_everywhere():
    for space in spaces():
        report = verify_cone_geometry(space, trials=60, seed=11)
        assert report.passed, [p.name for p in report.failing()]
    with pytest.raises(ValueError):  # no vacuous pass on zero trials
        verify_cone_geometry(spaces()[0], trials=0)


# ------------------------------------------------------------ stacked calls
# A stack must give, bit for bit, what the per-row calls give, and fail as a
# loop over its rows fails.

STACK_CONES = (Orthant(6), Lorentz(20), SymPSD(3), SymPSD(6),
               DirectSum((SymPSD(3), Lorentz(4), Orthant(2))))


def _geometry_loop(space, trials, seed):
    """The geometry suite as a loop of single-point calls, trial by trial."""
    rng = np.random.default_rng(seed)
    radius = 0.7
    lam = math.exp(radius)
    r_recip = r_arith = r_bisect = r_tri = r_scale = r_upper = r_lower = r_sym = 0.0
    for _ in range(trials):
        x = sample_interior_rng(space, rng, radius)
        y = sample_interior_rng(space, rng, radius)
        z = sample_interior_rng(space, rng, radius)
        big_m = gauge_M(space, x, y)
        r_recip = max(r_recip, abs(gauge_m(space, y, x) * big_m - 1.0))
        alpha, beta = rng.uniform(0.2, 3.0, size=2)
        gamma = rng.uniform(0.0, 0.95) * alpha * gauge_m(space, x, y)
        m_yx = gauge_m(space, y, x)
        big_m_yx = gauge_M(space, y, x)
        r_arith = max(
            r_arith,
            abs(gauge_M(space, alpha * x + beta * y, x) - (alpha + beta * big_m_yx))
            / (alpha + beta * big_m_yx),
            abs(gauge_m(space, alpha * x + beta * y, x) - (alpha + beta * m_yx))
            / (alpha + beta * m_yx),
            abs(gauge_m(space, alpha * x - gamma * y, x) - (alpha - gamma * big_m_yx))
            / max(abs(alpha - gamma * big_m_yx), 1e-6),
            abs(gauge_M(space, alpha * x - gamma * y, x) - (alpha - gamma * m_yx))
            / max(abs(alpha - gamma * m_yx), 1e-6),
        )
        gap = order_unit_norm(space, x - y)
        r_bisect = max(r_bisect, abs(gauge_M_bisect(space, x, y) - big_m) / big_m,
                       abs(order_unit_norm_bisect(space, x - y) - gap) / max(gap, 1e-12))
        dxy = thompson_distance(space, x, y)
        r_sym = max(r_sym, abs(dxy - thompson_distance(space, y, x)))
        r_tri = max(r_tri, dxy - thompson_distance(space, x, z) - thompson_distance(space, z, y))
        for lam_s in (0.1, 7.0):
            r_scale = max(r_scale, abs(thompson_distance(space, lam_s * x, lam_s * y) - dxy))
        r_upper = max(r_upper, dxy - lam * gap)
        r_lower = max(r_lower, gap - lam * dxy)
    residuals = {"gauge_reciprocity": (r_recip, 1e-10), "gauge_arithmetic": (r_arith, 1e-9),
                 "closed_vs_bisection": (r_bisect, 1e-9), "metric_symmetry": (r_sym, 0.0),
                 "metric_triangle": (r_tri, 1e-10), "metric_scale_invariance": (r_scale, 1e-12),
                 "metric_vs_norm_upper": (r_upper, 1e-10), "metric_vs_norm_lower": (r_lower, 1e-10)}
    props = [PropertyResult.from_residual(name, trials, r, tol)
             for name, (r, tol) in residuals.items()]
    return VerificationReport.from_properties(
        f"cone_geometry:{space.cone.label}", seed, props)


@pytest.mark.parametrize("cone", STACK_CONES, ids=str)
def test_geometry_suite_matches_the_per_trial_loop(cone):
    space = make_space(cone)
    for seed in range(8):
        assert verify_cone_geometry(space, trials=3, seed=seed).to_canonical_json() == \
            _geometry_loop(space, 3, seed).to_canonical_json()


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _exception(fn):
    try:
        fn()
    except Exception as exc:  # any class: the test compares them
        return type(exc)
    return None


SWEEP_CONES = (Orthant(4), Lorentz(5), SymPSD(3), DirectSum((SymPSD(2), Lorentz(3), Orthant(2))))


@pytest.mark.parametrize("cone", SWEEP_CONES, ids=str)
@settings(max_examples=5)
@given(seed=st.integers(0, 10**6), k=st.integers(1, 4), data=st.data())
def test_stacked_gauges_equal_the_per_row_calls(cone, seed, k, data):
    space = make_space(cone)
    rng = np.random.default_rng(seed)
    xs = np.array([sample_interior_rng(space, rng, 1.2) for _ in range(k)])
    ys = np.array([sample_interior_rng(space, rng, 1.2) for _ in range(k)])
    # some references are exactly the unit: the identity for PSD
    for i in data.draw(st.sets(st.integers(0, k - 1)), label="unit rows"):
        ys[i] = space.unit
    zs = rng.standard_normal((k, space.dim))
    assert _bits(order_unit_norm(space, zs)) == _bits([order_unit_norm(space, z) for z in zs])
    routines = [
        (lambda a, b: order_unit_norm(space, a, unit=b), zs, ys),
        (lambda a, b: order_unit_norm_bisect(space, a, unit=b), zs, ys),
        (lambda a, b: gauge_M(space, a, b), xs, ys),
        (lambda a, b: gauge_m(space, a, b), xs, ys),
        (lambda a, b: gauge_M_bisect(space, a, b), xs, ys),
        (lambda a, b: gauge_m_bisect(space, a, b), xs, ys),
        (lambda a, b: thompson_distance(space, a, b), xs, ys),
    ]
    for fn, a, b in routines:
        rows = [fn(ai, bi) for ai, bi in zip(a, b)]
        assert all(type(r) is float for r in rows)
        stacked = fn(a, b)
        assert stacked.shape == (k,) and _bits(stacked) == _bits(rows)
        # a single point against a stack broadcasts
        assert _bits(fn(a[0], b)) == _bits([fn(a[0], bi) for bi in b])
        assert _bits(fn(a, b[0])) == _bits([fn(ai, b[0]) for ai in a])

    # gauge_m takes a boundary reference through the upper gauge, row by row:
    # shifting a point down along the unit past its slack puts it just outside,
    # by far less than the 1e-12 the upper gauge tolerates
    unit = np.asarray(space.unit)
    shift = membership_slack(space.cone, xs[0]) + 1e-14 * np.abs(xs[0]).max()
    p = xs[0] - shift / membership_slack(space.cone, unit) * unit
    assert membership_slack(space.cone, p) <= 0.0
    bounded = ys.copy()
    bounded[data.draw(st.integers(0, k - 1), label="boundary row")] = p
    assert _bits(gauge_m(space, xs, bounded)) == \
        _bits([gauge_m(space, x, y) for x, y in zip(xs, bounded)])


@pytest.mark.parametrize("cone", SWEEP_CONES, ids=str)
@settings(max_examples=4)
@given(seed=st.integers(0, 10**6), k=st.integers(1, 4), data=st.data())
def test_a_stack_with_one_bad_row_fails_as_that_row_alone(cone, seed, k, data):
    space = make_space(cone)
    rng = np.random.default_rng(seed)
    xs = np.array([sample_interior_rng(space, rng, 1.0) for _ in range(k)])
    ys = np.array([sample_interior_rng(space, rng, 1.0) for _ in range(k)])
    at = data.draw(st.integers(0, k - 1), label="bad row")
    side = data.draw(st.sampled_from((0, 1)), label="bad argument")
    args = [xs, ys]
    args[side] = args[side].copy()
    args[side][at] = -args[side][at]  # an exterior point
    for name, routine in GAUGE_ROUTINES:
        alone = _exception(lambda: routine(space, args[0][at], args[1][at]))
        if alone is None:
            continue  # a norm of an exterior point is defined
        assert _exception(lambda: routine(space, *args)) is alone, name


# ---------------------------------------------------------------- split sampling

def _sample_interior_loop(space, rng, radius):
    """The interior sampler on one point: draw, scale, halve until unit +- u clear the margin."""
    unit = np.asarray(space.unit)
    if radius == 0.0:
        return unit.copy()
    u = rng.standard_normal(space.dim)
    norm = order_unit_norm(space, u)
    if norm == 0.0:
        return unit.copy()
    cap = 1.0 - math.exp(-radius)
    u *= rng.uniform(0.05, 1.0) * cap / norm
    margin = INTERIOR_MARGIN * max(1.0, float(np.abs(unit).max()))
    for _ in range(80):
        if cone_contains(space.cone, unit + u, margin) and \
                cone_contains(space.cone, unit - u, margin):
            break
        u *= 0.5
    return unit + u


def _sample_positive_loop(space, rng, scale):
    x = _sample_interior_loop(space, rng, 1.0) * rng.uniform(0.1, 1.0)
    return x * (scale / max(order_unit_norm(space, x), 1e-300))


# A perturbation of unit norm below 1 keeps unit +- u a fixed share of the
# unit's slack inside, so at the default units no sample halves below a
# radius of about 21; a unit of badly scaled coordinates makes the margin,
# which scales with the unit's largest coordinate, bind at radius 3.
SAMPLER_SPACES = {
    "orthant6": lambda: make_space(Orthant(6)),
    "lorentz5": lambda: make_space(Lorentz(5)),
    "psd3": lambda: make_space(SymPSD(3)),
    "sum": lambda: make_space(DirectSum((SymPSD(2), Lorentz(3), Orthant(2)))),
    "orthant3_scaled": lambda: make_space(Orthant(3), [1e3, 1.0, 1e-5]),
    "psd3_scaled": lambda: make_space(SymPSD(3), svec(np.diag([1e3, 1.0, 1e-5]))),
}


@pytest.mark.parametrize("name", SAMPLER_SPACES)
@settings(max_examples=8)
@given(seed=st.integers(0, 10**6),
       kinds=st.lists(st.sampled_from((0.0, 0.3, 1.0, 3.0, None)), min_size=1, max_size=12),
       scale=st.floats(0.05, 2.0))
def test_split_sampler_equals_the_per_point_sampler(name, seed, kinds, scale):
    """Radii in kinds draw interior samples, None a cone element of norm scale."""
    space = SAMPLER_SPACES[name]()
    loop_rng, point_rng, split_rng = (np.random.default_rng(seed) for _ in range(3))
    loop, point, draws = [], [], []
    for radius in kinds:
        if radius is None:
            loop.append(_sample_positive_loop(space, loop_rng, scale))
            point.append(sample_positive_rng(space, point_rng, scale))
            draws.append(draw_positive(space, split_rng))
        else:
            loop.append(_sample_interior_loop(space, loop_rng, radius))
            point.append(sample_interior_rng(space, point_rng, radius))
            draws.append(draw_interior(space, split_rng, radius))
    # the placements take every interior draw as one stack, every positive one as another
    split = [None] * len(kinds)
    for positive, place in ((False, place_interior),
                            (True, lambda sp, d: place_positive(sp, d, scale))):
        rows = [i for i, radius in enumerate(kinds) if (radius is None) == positive]
        if rows:
            for i, x in zip(rows, place(space, np.array([draws[i] for i in rows]))):
                split[i] = x
    assert _bits(point) == _bits(loop)
    assert _bits(split) == _bits(loop)
    assert point_rng.bit_generator.state == loop_rng.bit_generator.state
    assert split_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("name", ["orthant3_scaled", "psd3_scaled"])
def test_split_sampler_halves_in_lockstep(name):
    """At radius 3 the badly scaled units make some samples halve, as in the loop."""
    space = SAMPLER_SPACES[name]()
    rng = np.random.default_rng(0)
    draws = np.array([draw_interior(space, rng, 3.0) for _ in range(100)])
    placed = place_interior(space, draws)
    halved = (placed != np.asarray(space.unit) + scale_directions(space, draws)).any(axis=1)
    assert halved.sum() >= 3
    rng = np.random.default_rng(0)
    assert _bits(placed) == _bits([_sample_interior_loop(space, rng, 3.0) for _ in range(100)])


def test_a_zero_direction_draws_no_radius():
    class ZeroRng:
        def standard_normal(self, size=None, out=None):
            if out is None:
                return np.zeros(size)
            out[...] = 0.0
            return out

        def uniform(self, low, high):
            raise AssertionError("drew a radius for a zero direction")

        def random(self):
            raise AssertionError("drew a radius for a zero direction")

    space = make_space(Lorentz(5))
    assert _bits(sample_interior_rng(space, ZeroRng(), 0.5)) == _bits(space.unit)
    assert _bits(_sample_interior_loop(space, ZeroRng(), 0.5)) == _bits(space.unit)


# every (low, high) a draw passes to draw_uniform
UNIFORM_RANGES = ((0.0, 0.95), (0.0, 1.0), (0.01, 0.1), (0.05, 0.5), (0.05, 1.0), (0.1, 0.5),
                  (0.1, 0.8), (0.1, 0.9), (0.1, 1.0), (0.1, 1.5), (0.2, 1.0), (0.2, 1.2))


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1),
       bounds=st.sampled_from(UNIFORM_RANGES) | st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
def test_draw_uniform_is_the_generators_uniform(seed, bounds):
    """low + (high - low) * random() is Generator.uniform(low, high) bit for bit."""
    low, high = sorted(bounds)
    ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
    expect = [ref.uniform(low, high) for _ in range(200)]
    assert _bits([cones.draw_uniform(fast, low, high) for _ in range(200)]) == _bits(expect)
    assert fast.bit_generator.state == ref.bit_generator.state
    # many more values through the same formula, as arrays
    assert _bits(low + (high - low) * fast.random(20_000)) == _bits(ref.uniform(low, high, 20_000))


def test_space_dimension_is_worked_out_once(monkeypatch):
    space = make_space(DirectSum((SymPSD(2), Lorentz(3), Orthant(2))))
    assert space.dim == 8

    def recount(cone):
        raise AssertionError("space.dim recomputed")

    # a data descriptor on the class wins over the sum's own cached value
    monkeypatch.setattr(DirectSum, "dim", property(recount))
    with pytest.raises(AssertionError):
        space.cone.dim
    assert space.dim == 8


def test_fold_max_folds_a_nan_to_nan():
    assert cones.fold_max([0.5, 2.0, 1.0], 1.5) == 2.0
    assert cones.fold_max([], 1.5) == 1.5
    # a NaN anywhere, or a NaN start carried over from an earlier block, stays NaN
    assert math.isnan(cones.fold_max([0.5, math.nan, 2.0]))
    assert math.isnan(cones.fold_max([2.0], math.nan))
