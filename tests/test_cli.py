"""Command line behaviour: outputs, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from symcone import Lorentz, builtin_algebra, cli, make_space


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "symcone.cli", *args],
                          capture_output=True, text=True)


def test_gauge_command_worked_example():
    r = run_cli("gauge", "--cone", "orthant", "--dim", "2", "--x", "[2,1]", "--y", "[1,3]")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["m"] == pytest.approx(1.0 / 3.0)
    assert payload["M"] == pytest.approx(2.0)
    assert payload["dT"] == pytest.approx(math.log(3.0))


def test_gauge_rejects_boundary_point():
    r = run_cli("gauge", "--cone", "orthant", "--dim", "2", "--x", "[1,0]", "--y", "[1,3]")
    assert r.returncode == 2
    assert "not interior" in r.stderr


def test_usage_errors_exit_two():
    assert run_cli("suite", "--cone", "orthant", "--dim", "3").returncode == 2
    assert run_cli("suite", "--cone", "orthant", "--map", "inversion").returncode == 2
    assert run_cli("suite", "--map", "inversion").returncode == 2
    assert run_cli("suite", "--cone", "moebius", "--dim", "3",
                   "--map", "inversion").returncode == 2
    r = run_cli("gauge", "--cone", "orthant", "--dim", "2", "--x", "[2,1", "--y", "[1,3]")
    assert r.returncode == 2
    assert run_cli("suite", "--cone", "orthant", "--dim", "3", "--map", "inversion",
                   "--trials", "0").returncode == 2
    assert run_cli("suite", "--cone", "orthant", "--dim", "3", "--map", "inversion",
                   "--tol", "-1").returncode == 2


def test_suite_passes_and_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("suite", "--cone", "orthant", "--dim", "3", "--map", "inversion",
                "--trials", "15", "--out", str(out))
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    assert set(payload) == {"suite", "seed", "properties", "pass"}
    assert payload["pass"] is True
    assert all(set(p) == {"name", "trials", "max_residual", "tolerance", "pass"}
               for p in payload["properties"])


def test_suite_detects_identity_map():
    r = run_cli("suite", "--cone", "orthant", "--dim", "3", "--map", "identity",
                "--trials", "10", "--tol", "1e-3")
    assert r.returncode == 1


def test_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ("suite", "--cone", "lorentz", "--dim", "3", "--map", "inversion",
            "--trials", "12", "--seed", "7")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_reconstruct_recovers_spin_product(tmp_path):
    out = tmp_path / "tensor.json"
    r = run_cli("reconstruct", "--cone", "lorentz", "--dim", "4", "--map", "inversion",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    payload = json.loads(out.read_text())
    truth = builtin_algebra(make_space(Lorentz(4))).product
    dev = np.abs(np.asarray(payload["table"]) - truth.table).max()
    assert dev <= 1e-7
    assert payload["max_deviation_from_builtin"] <= 1e-7


@pytest.mark.parametrize("command", ["suite", "reconstruct"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_product_table_exits_two(tmp_path, command, bad):
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = table[1, 1, 1] = 1.0
    table[0, 1, 0] = bad
    path = tmp_path / "product.json"
    # json writes NaN and Infinity as bare literals and reads them back
    path.write_text(json.dumps({"n": 2, "unit": [1.0, 1.0], "table": table.tolist()}))
    r = run_cli(command, "--cone", "orthant", "--dim", "2", "--map", "recovered",
                "--product", str(path))
    assert r.returncode == 2, r.stderr
    assert "bad product tensor JSON" in r.stderr
    assert "Traceback" not in r.stderr


def test_text_format_renders_lines():
    r = run_cli("suite", "--cone", "orthant", "--dim", "2", "--map", "inversion",
                "--trials", "8", "--format", "text")
    assert r.returncode == 0
    assert "[PASS]" in r.stdout
    assert r.stdout.strip().endswith("result: PASS")


def test_tolerance_below_solver_floor_fails():
    # demanding more than the eigensolver can deliver flips the exit code
    r = run_cli("suite", "--cone", "psd", "--d", "3", "--map", "inversion",
                "--trials", "20", "--tol", "1e-14")
    assert r.returncode == 1


def test_ill_conditioned_conjugate_fails_with_a_report(tmp_path):
    # the conjugating automorphisms at this seed are badly conditioned; the
    # suite must report the failures instead of dying inside the eigensolver
    out = tmp_path / "report.json"
    r = run_cli("suite", "--cone", "psd", "--d", "3", "--map", "conjugate",
                "--trials", "5", "--seed", "2", "--out", str(out))
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    payload = json.loads(out.read_text())
    assert payload["pass"] is False


def test_lorentz5_conjugate_seed_42_passes(tmp_path):
    # symmetry_involution reads 7.8e-9 here, close to its 1e-8 tolerance, so
    # this run catches a loss of accuracy in the solves behind the derivative
    out = tmp_path / "report.json"
    r = run_cli("suite", "--cone", "lorentz", "--dim", "5", "--map", "conjugate",
                "--trials", "30", "--seed", "42", "--out", str(out))
    assert r.returncode == 0, r.stdout
    payload = json.loads(out.read_text())
    assert payload["pass"] is True


def test_lorentz5_inversion_seed_42_passes(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["suite", "--cone", "lorentz", "--dim", "5", "--map", "inversion",
                     "--trials", "30", "--seed", "42", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["pass"] is True


def test_atomicity_command():
    r = run_cli("atomicity", "--cone", "psd", "--d", "2", "--trials", "32")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["pass"] is True


def test_vector_json_codec():
    from symcone import vector_from_json, vector_to_json
    data = vector_to_json([1.5, -2.0])
    assert data == {"coords": [1.5, -2.0]}
    np.testing.assert_array_equal(vector_from_json(data), [1.5, -2.0])
