"""Pure states, extremal vectors, and the atomic-structure checkers."""

import numpy as np
import pytest

from symcone import (
    DirectSum,
    ExtremalVector,
    Inversion,
    Lorentz,
    NotInteriorError,
    Orthant,
    PropertyResult,
    PureState,
    SymPSD,
    VerificationReport,
    builtin_algebra,
    check_order_interval_segment,
    check_state_gauge_identity,
    check_strong_atomicity,
    cone_contains,
    conjugated_inversion,
    extremal_for_state,
    gauge_M,
    gauge_m,
    identity_map,
    make_space,
    membership_slack,
    order_unit_norm,
    pure_states,
    sample_interior,
    state_extremal_pairs,
    svec,
)
from symcone.cones import sample_interior_rng, sample_positive_rng
from symcone.jordan import quad_rep


def test_orthant_states_are_coordinate_functionals():
    o3 = make_space(Orthant(3))
    pairs = state_extremal_pairs(o3, 10)
    assert len(pairs) == 10
    coords = set()
    for st, ext in pairs:
        # each state is exactly one coordinate functional, and its own extremal
        (i,) = np.flatnonzero(st.covector)
        np.testing.assert_array_equal(st.covector, np.eye(3)[i])
        np.testing.assert_array_equal(ext.point, st.covector)
        np.testing.assert_array_equal(extremal_for_state(o3, st).point, ext.point)
        assert st([1.0, 2.0, 3.0]) == float(i + 1)
        coords.add(int(i))
    assert coords == {0, 1, 2}


def test_a_sums_states_reach_every_block():
    cone = DirectSum((SymPSD(2), Lorentz(3), Orthant(2)))
    space = make_space(cone)
    hit = set()
    for state, ext in state_extremal_pairs(space, 16, seed=42):
        (block,) = [b for b, s in enumerate(cone.slices) if np.any(ext.point[s] != 0.0)]
        assert not np.delete(state.covector, np.r_[cone.slices[block]]).any()
        hit.add(block)
    assert hit == {0, 1, 2}


def test_psd_state_example():
    p2 = make_space(SymPSD(2))
    st = PureState(svec(np.outer([1.0, 0.0], [1.0, 0.0])), "rank_one:test")
    assert st(svec(np.diag([5.0, 7.0]))) == pytest.approx(5.0)


def test_states_normalized_and_positive():
    rng = np.random.default_rng(0)
    for cone in (Orthant(4), Lorentz(4), SymPSD(3)):
        space = make_space(cone)
        for st in pure_states(space, 8, seed=1):
            assert abs(st(space.unit) - 1.0) <= 1e-12
            for _ in range(20):
                x = sample_positive_rng(space, rng, 1.0)
                assert st(x) >= -1e-12


def test_extremal_examples():
    # the extremal of a state is its covector scaled to gauge 1 at the unit
    p2 = make_space(SymPSD(2))
    st = PureState(svec(np.outer([1.0, 0.0], [1.0, 0.0])), "rank_one:t")
    np.testing.assert_allclose(extremal_for_state(p2, st).point, svec(np.diag([1.0, 0.0])))

    l3 = make_space(Lorentz(3))
    st = PureState(np.array([1.0, 1.0, 0.0]), "boundary:t")
    p = extremal_for_state(l3, st)
    np.testing.assert_allclose(p.point, [0.5, 0.5, 0.0])
    assert gauge_M(l3, p.point, l3.unit) == pytest.approx(1.0, abs=1e-12)

    # and it is the primitive idempotent the state was read off
    for cone in (Orthant(3), Lorentz(5), SymPSD(3), DirectSum((SymPSD(2), Lorentz(3), Orthant(2)))):
        space = make_space(cone)
        for state, ext in state_extremal_pairs(space, 8, seed=3):
            np.testing.assert_allclose(extremal_for_state(space, state).point, ext.point,
                                       rtol=0.0, atol=1e-14)


def test_extremal_normalization_across_families():
    for cone in (Orthant(4), Lorentz(5), SymPSD(3)):
        space = make_space(cone)
        for _, ext in state_extremal_pairs(space, 12, seed=2):
            assert abs(gauge_M(space, ext.point, space.unit) - 1.0) <= 1e-10


def test_extremality_witness():
    # points of the interval [0, p] collapse onto the ray through p
    rng = np.random.default_rng(3)
    for cone in (Orthant(3), Lorentz(4), SymPSD(2)):
        space = make_space(cone)
        for _, ext in state_extremal_pairs(space, 3, seed=4):
            p = ext.point
            for _ in range(20):
                t = rng.uniform(0.0, 1.0)
                noise = rng.standard_normal(space.dim) * 0.3
                lo, hi = 0.0, 1.0
                def inside(z):
                    return membership_slack(space.cone, z) >= -1e-12 and \
                        membership_slack(space.cone, p - z) >= -1e-12
                if not inside(t * p + noise):
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        if inside(t * p + mid * noise):
                            lo = mid
                        else:
                            hi = mid
                z = t * p + lo * noise
                t_fit = float(z @ p) / float(p @ p)
                assert np.linalg.norm(z - t_fit * p) <= 1e-8


def test_state_gauge_identity_worked_examples():
    p2 = make_space(SymPSD(2))
    g = svec(np.diag([2.0, 1.0]))
    p = svec(np.outer([1.0, 0.0], [1.0, 0.0]))
    inv = Inversion(builtin_algebra(p2))
    st = PureState(p, "rank_one:t")
    assert gauge_M(p2, p, g) == pytest.approx(0.5, abs=1e-12)
    assert st(inv.apply(g)) == pytest.approx(0.5, abs=1e-12)

    o2 = make_space(Orthant(2))
    inv2 = Inversion(builtin_algebra(o2))
    assert gauge_M(o2, [0.0, 1.0], [2.0, 5.0]) == pytest.approx(0.2, abs=1e-14)
    assert inv2.apply([2.0, 5.0])[1] == pytest.approx(0.2, abs=1e-14)

    # at the unit both sides are exactly one
    st0 = pure_states(o2, 2)[0]
    p0 = extremal_for_state(o2, st0)
    assert gauge_M(o2, p0.point, o2.unit) == pytest.approx(1.0)
    assert st0(inv2.apply(o2.unit)) == pytest.approx(1.0)


def test_state_gauge_identity_checker_passes():
    for cone in (Orthant(4), Lorentz(4), SymPSD(3)):
        space = make_space(cone)
        inv = Inversion(builtin_algebra(space))
        report = check_state_gauge_identity(inv, space, trials=30, seed=5, tol=1e-8)
        assert report.passed, (cone, [p.name for p in report.failing()])


def test_mismatched_state_is_distinguishable():
    # swapping the state while keeping the extremal breaks the identity
    o3 = make_space(Orthant(3))
    inv = Inversion(builtin_algebra(o3))
    states = [PureState(row, f"coord:{i}") for i, row in enumerate(np.eye(3))]
    p = extremal_for_state(o3, states[0]).point
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        g = sample_interior_rng(o3, rng, 1.0)
        worst = max(worst, abs(gauge_M(o3, p, g) - states[1](inv.apply(g))))
    assert worst > 1e-3


def test_strong_atomicity_orthant_example():
    o2 = make_space(Orthant(2))
    g = np.array([2.0, 5.0])
    e1 = np.array([1.0, 0.0])
    assert gauge_m(o2, g, e1) == pytest.approx(2.0)  # m(g, e_i) recovers g_i


def test_strong_atomicity_psd_example():
    p2 = make_space(SymPSD(2))
    g = svec(np.diag([2.0, 1.0]))
    u = np.array([1.0, 0.0])
    p = svec(np.outer(u, u))
    value = 1.0 / gauge_M(p2, p, g)  # equals 1 / (u^T g^{-1} u) = 2
    assert value == pytest.approx(2.0, abs=1e-12)


def test_strong_atomicity_checker_passes():
    for cone in (Orthant(4), Lorentz(4), SymPSD(3)):
        space = make_space(cone)
        inv = Inversion(builtin_algebra(space))
        g = sample_interior(space, 9, 1.0)
        report = check_strong_atomicity(space, inv, g, trials=48, seed=7, tol=1e-7)
        assert report.passed, (cone, [(p.name, p.max_residual) for p in report.failing()])


def test_order_interval_examples():
    o2 = make_space(Orthant(2))
    st = pure_states(o2, 2)[0]
    report = check_order_interval_segment(o2, [1.0, 1.0], extremal_for_state(o2, st),
                                          trials=100, seed=8, tol=1e-8)
    assert report.passed

    p2 = make_space(SymPSD(2))
    stp = PureState(svec(np.outer([1.0, 0.0], [1.0, 0.0])), "rank_one:t")
    report = check_order_interval_segment(p2, p2.unit, extremal_for_state(p2, stp),
                                          trials=100, seed=8, tol=1e-8)
    assert report.passed
    assert report.properties[0].max_residual <= 1e-8


@pytest.mark.xfail(strict=True, reason=(
    "interval_is_segment reads 1.0475e-8 against 1e-8: trial 5's noise is nearly tangent "
    "to the Lorentz boundary at the ray (normal component 2.9e-5, typically 0.04), so the "
    "-1e-12 slack allowance lets the projection move 1e-8 off the segment"))
def test_lorentz20_interval_is_a_segment_at_seed_37():
    space = make_space(Lorentz(20))
    x = sample_interior(space, 1037, 0.5)
    # the extremal 1/2 (1, omega) with omega a unit normal draw at seed 5037,
    # the draw that reproduces the fault
    omega = np.random.default_rng(5037).standard_normal(19)
    p = ExtremalVector(0.5 * np.concatenate(([1.0], omega / np.linalg.norm(omega))), "boundary")
    report = check_order_interval_segment(space, x, p, trials=16, seed=37)
    assert report.passed, report.properties[0].max_residual


def test_pure_state_dominance_on_orthant():
    # state-wise comparison at the coordinate functionals decides the order
    o4 = make_space(Orthant(4))
    states = pure_states(o4, 16)
    assert {int(np.argmax(st.covector)) for st in states} == {0, 1, 2, 3}
    rng = np.random.default_rng(10)
    for _ in range(25):
        a = rng.standard_normal(4)
        b = a + sample_positive_rng(o4, rng, rng.uniform(0.0, 1.0))
        assert all(st(a) <= st(b) + 1e-12 for st in states)
        assert cone_contains(o4.cone, b - a, -1e-12)


# ------------------------------------------------------------ stacked checkers
# The checkers evaluate their gauges and bisections over stacks; the loops
# below are the same checks one point at a time, which they must equal.

STACK_CONES = (Orthant(6), Lorentz(20), SymPSD(3), SymPSD(6),
               DirectSum((SymPSD(3), Lorentz(4), Orthant(2))))


def _segment_loop(space, x, p, trials, seed, tol=1e-8):
    """check_order_interval_segment with one membership bisection per trial."""
    rng = np.random.default_rng(seed)
    direction = np.asarray(p.point, dtype=float)
    top = x + direction
    norm_p2 = float(direction @ direction)
    eps = -1e-12 * (1.0 + float(np.abs(x).max() + np.abs(direction).max()))

    def in_interval(z):
        return membership_slack(space.cone, z - x) >= eps and \
            membership_slack(space.cone, top - z) >= eps

    worst = 0.0
    for _ in range(trials):
        t = rng.uniform(0.0, 1.0)
        base = x + t * direction
        noise = rng.standard_normal(space.dim)
        noise *= 0.2 / max(order_unit_norm(space, noise), 1e-300)
        lo, hi = 0.0, 1.0
        if in_interval(base + noise):
            lo = 1.0
        else:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if in_interval(base + mid * noise):
                    lo = mid
                else:
                    hi = mid
        z = base + lo * noise
        t_fit = float((z - x) @ direction) / norm_p2
        worst = max(worst, float(np.linalg.norm(z - (x + t_fit * direction))))
    props = [PropertyResult.from_residual("interval_is_segment", trials, worst, tol)]
    return VerificationReport.from_properties(
        f"order_interval:{space.cone.label}", seed, props)


def _atomicity_loop(space, map_spec, g, trials, seed, tol=1e-7):
    """check_strong_atomicity with one gauge call per state and extremal.

    The maximizer at a state is P(g) applied to its extremal, scaled to gauge 1
    at the unit.
    """
    unit = np.asarray(space.unit)
    pg = quad_rep(space.cone, g)
    pairs = state_extremal_pairs(space, min(trials, 16), seed)
    sampled = [ext for _, ext in state_extremal_pairs(space, trials, seed + 1)]
    worst_upper = worst_attain = worst_cross = 0.0
    map_fixes_unit = order_unit_norm(space, map_spec.apply(unit) - unit) <= 1e-9
    fg = map_spec.apply(g) if map_fixes_unit else None
    for state, paired_ext in pairs:
        target = state(g)
        for ext in sampled:
            val = state(ext.point) / gauge_M(space, ext.point, g)
            worst_upper = max(worst_upper, (val - target) / (1.0 + abs(target)))
        best = np.matvec(pg, paired_ext.point)
        best = best / gauge_M(space, best, unit)
        attained = state(best) / gauge_M(space, best, g)
        worst_attain = max(worst_attain, abs(attained - target) / (1.0 + abs(target)))
        if map_fixes_unit:
            worst_cross = max(worst_cross, abs(gauge_M(space, paired_ext.point, g) - state(fg))
                              / (1.0 + abs(state(fg))))
    props = [
        PropertyResult.from_residual("sampled_inequality", len(pairs) * len(sampled),
                                     worst_upper, 1e-9),
        PropertyResult.from_residual("maximizer_attains", len(pairs), worst_attain, tol),
    ]
    if map_fixes_unit:
        props.append(PropertyResult.from_residual(
            "gauge_vs_map_route", len(pairs), worst_cross, max(tol, 1e-8)))
    return VerificationReport.from_properties(
        f"strong_atomicity:{space.cone.label}", seed, props)


def _state_gauge_loop(map_spec, space, trials, seed, tol=1e-8):
    """check_state_gauge_identity with one sample and one map call per trial."""
    rng = np.random.default_rng(seed)
    unit = np.asarray(space.unit)
    fixed = order_unit_norm(space, map_spec.apply(unit) - unit)
    pairs = state_extremal_pairs(space, 16, seed)
    worst_norm = max(abs(gauge_M(space, ext.point, unit) - 1.0) for _, ext in pairs)
    worst_ident = 0.0
    for _ in range(trials):
        g = sample_interior_rng(space, rng, 1.0)
        fg = map_spec.apply(g)
        for state, ext in pairs:
            lhs = gauge_M(space, ext.point, g)
            rhs = state(fg)
            worst_ident = max(worst_ident, abs(lhs - rhs) / (1.0 + abs(rhs)))
    props = [
        PropertyResult.from_residual("map_fixes_unit", 1, fixed, 1e-9),
        PropertyResult.from_residual("extremal_normalization", len(pairs), worst_norm, 1e-10),
        PropertyResult.from_residual("state_gauge_identity", trials * len(pairs),
                                     worst_ident, tol),
    ]
    return VerificationReport.from_properties(
        f"state_gauge:{space.cone.label}", seed, props)


@pytest.mark.parametrize("cone", STACK_CONES, ids=str)
def test_stacked_checkers_match_the_per_point_loops(cone):
    space = make_space(cone)
    inv = Inversion(builtin_algebra(space))
    for seed in range(8):
        x = sample_interior(space, 100 + seed, 0.5)
        p = state_extremal_pairs(space, 1, 200 + seed)[0][1]
        assert check_order_interval_segment(space, x, p, trials=6, seed=seed
                                            ).to_canonical_json() == \
            _segment_loop(space, x, p, 6, seed).to_canonical_json()
        g = sample_interior(space, 300 + seed, 1.0)
        # the identity fixes the unit but fails the map route; a conjugated
        # inversion does not fix the unit, so its report has no map route
        maps = (inv, identity_map(), conjugated_inversion(space, 5)) if seed < 2 else (inv,)
        for spec in maps:
            assert check_strong_atomicity(space, spec, g, trials=8, seed=seed
                                          ).to_canonical_json() == \
                _atomicity_loop(space, spec, g, 8, seed).to_canonical_json()
        # a conjugated inversion fails map_fixes_unit but is checked all the same
        for spec in maps[::2]:
            for trials in ((1, 4, 40) if seed < 2 else (4,)):
                stacked = check_state_gauge_identity(spec, space, trials=trials, seed=seed)
                looped = _state_gauge_loop(spec, space, trials, seed)
                assert stacked.to_canonical_json() == looped.to_canonical_json()
                assert stacked.to_text() == looped.to_text()


class _Fenced:
    """Orthant inversion refusing rows whose coordinate sum passes 3.8.

    The message names the last refused row of the call, so that a stack
    refused on several trials names another row than its first trial does.
    """

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, x.shape[-1])
        refused = rows[rows.sum(axis=-1) > 3.8]
        if len(refused):
            raise NotInteriorError(f"refused row {refused[-1].tolist()}")
        return 1.0 / x


def test_state_gauge_identity_raises_the_first_failing_trials_error():
    o3 = make_space(Orthant(3))
    rng = np.random.default_rng(2)
    gs = [sample_interior_rng(o3, rng, 1.0) for _ in range(30)]
    trial = next(i for i, g in enumerate(gs) if g.sum() > 3.8)
    assert trial > 0
    with pytest.raises(NotInteriorError) as info:
        check_state_gauge_identity(_Fenced(), o3, trials=30, seed=2)
    assert str(info.value) == f"refused row {gs[trial].tolist()}"
