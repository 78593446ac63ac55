"""Acceptance battery: one test per release criterion, with stated tolerances.

Each test prints a single PASS/FAIL line for its criterion.  Heavy suite
runs are shared through module-scoped fixtures so the full battery stays
below a few minutes.
"""

import json
import subprocess
import sys
import time

import pytest

from symcone import (
    Inversion,
    Lorentz,
    Orthant,
    ProductTensor,
    SymPSD,
    builtin_algebra,
    canonical_json,
    check_order_interval_segment,
    check_state_gauge_identity,
    check_strong_atomicity,
    conjugated_inversion,
    cross_validate,
    extract_product,
    extremal_for_state,
    inversion_j,
    make_space,
    order_unit_norm,
    pure_states,
    sample_interior,
    verify_cone_geometry,
    verify_gauge_reversing,
    verify_reconstruction,
)

FLAGSHIPS = {
    "orthant6": Orthant(6),
    "psd3": SymPSD(3),
    "lorentz5": Lorentz(5),
}


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def spaces():
    return {name: make_space(cone) for name, cone in FLAGSHIPS.items()}


@pytest.fixture(scope="module")
def reconstruction_reports(spaces):
    reports = {}
    for name, space in spaces.items():
        inv = Inversion(builtin_algebra(space))
        reports[name] = verify_reconstruction(inv, space, trials=200, seed=42, tol=1e-7)
    return reports


def residuals(report):
    return {p.name: p.max_residual for p in report.properties}


def test_criterion_1_orthant_reconstruction(spaces):
    space = spaces["orthant6"]
    inv = Inversion(builtin_algebra(space))
    start = time.perf_counter()
    tensor = extract_product(inversion_j(inv, space), space)
    elapsed = time.perf_counter() - start
    dev = cross_validate(tensor, builtin_algebra(space).product)
    criterion(1, dev <= 1e-8 and elapsed < 1.0,
              f"orthant n=6 recovery deviation {dev:.2e} in {elapsed:.2f}s")


def test_criterion_2_psd_and_lorentz_reconstruction(spaces):
    ok = True
    details = []
    for name in ("psd3", "lorentz5"):
        space = spaces[name]
        plain = Inversion(builtin_algebra(space))
        wrapped = conjugated_inversion(space, 17)
        moved = order_unit_norm(space, wrapped.apply(space.unit) - space.unit)
        ok = ok and moved > 1e-3  # the wrapped map must exercise the moved-unit path
        for label, mp in (("plain", plain), ("wrapped", wrapped)):
            start = time.perf_counter()
            tensor = extract_product(inversion_j(mp, space), space)
            elapsed = time.perf_counter() - start
            dev = cross_validate(tensor, builtin_algebra(space).product)
            details.append(f"{name}/{label} dev {dev:.2e} in {elapsed:.1f}s")
            ok = ok and dev <= 1e-6 and elapsed < 10.0
    criterion(2, ok, "; ".join(details))


def test_criterion_3_hua_and_derivative(reconstruction_reports):
    ok = True
    details = []
    for name, report in reconstruction_reports.items():
        r = residuals(report)
        hua = r["hua_identity"]
        formula = r["derivative_formula"]
        bound = r["derivative_first_order_bound"]
        details.append(f"{name}: hua {hua:.1e} formula {formula:.1e} bound {bound:.1e}")
        ok = ok and hua <= 1e-8 and formula <= 1e-8 and bound <= 1e-9
    criterion(3, ok, "; ".join(details))


def test_criterion_4_axioms_and_fundamental_identity(reconstruction_reports):
    ok = True
    details = []
    for name, report in reconstruction_reports.items():
        r = residuals(report)
        worst = max(r["tensor_qj1_unit"], r["tensor_qj2_triple"],
                    r["tensor_qj3_composition"], r["fundamental_identity"])
        details.append(f"{name}: worst {worst:.1e}")
        ok = ok and worst <= 1e-7
    criterion(4, ok, "; ".join(details))


def test_criterion_5_norm_laws(reconstruction_reports):
    ok = True
    details = []
    for name, report in reconstruction_reports.items():
        r = residuals(report)
        nc = max(r["tensor_nc1_submultiplicative"], r["tensor_nc2_square_norm"],
                 r["tensor_nc3_square_monotone"])
        ok = ok and nc <= 1e-8
        ok = ok and r["tensor_quad_rep_norm"] <= 1e-8
        ok = ok and r["tensor_quad_rep_positive"] <= 1e-8
        ok = ok and r["square_bounds"] <= 1e-9
        details.append(f"{name}: nc {nc:.1e} sq {r['square_bounds']:.1e}")
    criterion(5, ok, "; ".join(details))


def test_criterion_6_thompson_metric_suite(spaces):
    ok = True
    details = []
    for name, space in spaces.items():
        geo = verify_cone_geometry(space, trials=200, seed=42)
        ok = ok and geo.passed
        inv = Inversion(builtin_algebra(space))
        rev = verify_gauge_reversing(inv, space, space, trials=200, seed=42, tol=1e-9)
        iso = {p.name: p.max_residual for p in rev.properties}["thompson_isometry"]
        ok = ok and iso <= 1e-9 and rev.passed
        details.append(f"{name}: geometry {'ok' if geo.passed else 'BAD'} isometry {iso:.1e}")
    criterion(6, ok, "; ".join(details))


def test_criterion_7_geometric_series(reconstruction_reports):
    ok = True
    details = []
    for name, report in reconstruction_reports.items():
        r = residuals(report)["geometric_series"]
        details.append(f"{name}: {r:.1e}")
        ok = ok and r <= 1e-9
    criterion(7, ok, "; ".join(details))


def test_criterion_8_extremal_identities(spaces):
    ok = True
    details = []
    for name, space in spaces.items():
        inv = Inversion(builtin_algebra(space))
        ident = check_state_gauge_identity(inv, space, trials=40, seed=42, tol=1e-8)
        ok = ok and ident.passed
        g = sample_interior(space, 43, 1.0)
        atom = check_strong_atomicity(space, inv, g, trials=64, seed=42, tol=1e-7)
        vals = {p.name: p for p in atom.properties}
        ok = ok and vals["maximizer_attains"].max_residual <= 1e-7
        ok = ok and vals["sampled_inequality"].max_residual <= 1e-9
        x0 = sample_interior(space, 44, 0.5)
        pair = pure_states(space, 1, seed=45)[0]
        seg = check_order_interval_segment(space, x0, extremal_for_state(space, pair),
                                           trials=100, seed=42, tol=1e-8)
        ok = ok and seg.passed
        details.append(
            f"{name}: ident {'ok' if ident.passed else 'BAD'} "
            f"atom {vals['maximizer_attains'].max_residual:.1e} "
            f"seg {seg.properties[0].max_residual:.1e}")
    criterion(8, ok, "; ".join(details))


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "symcone.cli", *args],
                          capture_output=True, text=True)


def test_criterion_9_negative_controls(tmp_path):
    ok = True
    details = []

    r = run_cli("suite", "--cone", "orthant", "--dim", "3", "--map", "identity",
                "--trials", "10", "--tol", "1e-3")
    failing = {p["name"] for p in json.loads(r.stdout)["properties"] if not p["pass"]}
    got = r.returncode == 1 and "reversing/gauge_reversal" in failing
    details.append(f"identity exit {r.returncode}")
    ok = ok and got

    r = run_cli("suite", "--cone", "orthant", "--dim", "3", "--map", "power3",
                "--trials", "10", "--tol", "1e-3")
    failing = {p["name"] for p in json.loads(r.stdout)["properties"] if not p["pass"]}
    got = r.returncode == 1 and "reversing/homogeneity_deg_minus_one" in failing \
        and "reconstruction/hua_identity" in failing
    details.append(f"power3 exit {r.returncode}")
    ok = ok and got

    truth = builtin_algebra(make_space(Orthant(4))).product
    table = truth.table.copy()
    table[1, 2, 3] += 0.1
    table[2, 1, 3] += 0.1
    bad = ProductTensor(4, truth.unit.copy(), table)
    path = tmp_path / "perturbed.json"
    path.write_text(canonical_json(bad.to_json()))
    r = run_cli("suite", "--cone", "orthant", "--dim", "4", "--map", "recovered",
                "--product", str(path), "--trials", "200", "--tol", "1e-3")
    failing = {p["name"] for p in json.loads(r.stdout)["properties"] if not p["pass"]}
    got = r.returncode == 1 and "input_product/qj3_composition" in failing
    details.append(f"perturbed-tensor exit {r.returncode}")
    ok = ok and got

    criterion(9, ok, "; ".join(details))


def test_criterion_10_deterministic_reports(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ("suite", "--cone", "psd", "--d", "2", "--map", "inversion",
            "--trials", "10", "--seed", "5")
    ra = run_cli(*args, "--out", str(a))
    rb = run_cli(*args, "--out", str(b))
    same = ra.returncode == 0 and rb.returncode == 0 and a.read_bytes() == b.read_bytes()
    criterion(10, same, "identical seeds give byte-identical canonical reports")
