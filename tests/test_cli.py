"""Command line behaviour: outputs, exit codes, determinism."""

import hashlib
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


def test_lorentz5_conjugate_seed_42_passes(tmp_path):
    # every residual sits far below its tolerance here (symmetry_involution
    # reads 4.4e-14 against 1e-8); the accuracy canary of the solves behind
    # the derivative is the condition ladder of test_reconstruction
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


# ------------------------------------------------------- pinned reports
# Exit code and SHA-256 of the canonical JSON of `symcone suite --trials 5`.
# A change to the sampling, the inversions or the checkers that is meant to
# keep every report must keep these; one that moves a report regenerates
# them and says so.

SUITE_CONES = {
    "orthant6": ["--cone", "orthant", "--dim", "6"],
    "lorentz5": ["--cone", "lorentz", "--dim", "5"],
    "psd3": ["--cone", "psd", "--d", "3"],
}
# passed through --cone-json
SUM_CONE = {"kind": "sum", "parts": [{"kind": "psd", "d": 2}, {"kind": "lorentz", "n": 3},
                                     {"kind": "orthant", "n": 2}]}

SUITE_DIGESTS = {
    ("orthant6", "inversion", 0):
        (0, "544a53b9009b5b3e3435bc94d29a9d8c095412c505caf44ece809f26a704405b"),
    ("orthant6", "inversion", 1):
        (0, "463bbf241b64516acf98cc1476f39e9231223835784720d54c7925dc57e6c93e"),
    ("orthant6", "inversion", 2):
        (0, "0cd4905d07f410ec9977dd22405016c1b4234314c805b173de35269fe3a7b5d4"),
    ("lorentz5", "inversion", 0):
        (0, "cea95908f8d79abc5aaa46ffcbb61509b226aa02729e485d50de1190007dc0dc"),
    ("lorentz5", "inversion", 1):
        (0, "1c0dfd71d0d7c74f62bbad5bf6383611584e5a88cff7b5cfb5b2310c9e1cb4b9"),
    ("lorentz5", "inversion", 2):
        (0, "12a250d0079093146bf7bd97b5af42070d2be7fb4249ebecf00bd640b45f2c8e"),
    ("psd3", "inversion", 0):
        (0, "57440eb508963a1c0f198c0c37e83dc5592e2f9f37320da4f0b7202905146649"),
    ("psd3", "inversion", 1):
        (0, "496dabb4c4e4ce7a79745d1ec9493a213e5e71c3920084c04d24042b26e76369"),
    ("psd3", "inversion", 2):
        (0, "a308fbd9e0f55804d6c0a0bd6d9fe3595ec4e95d4137abd27407ef4739756d63"),
    ("orthant6", "conjugate", 0):
        (0, "2b1ac87cad61ab307ebf9b8870a2ea4c8bfe14468ff2b8e41ede14b9cf0ba0b5"),
    ("orthant6", "conjugate", 1):
        (0, "4177485c36eb41ec93aa3e29e87a9c32b4811f22523aedb9198a69c47bee1012"),
    ("orthant6", "conjugate", 2):
        (0, "3a75aa86910417e765dd25d2e8280884fd62deff0a00192bd03a24db8728f788"),
    ("lorentz5", "conjugate", 0):
        (0, "b57d9cbe7fd50dcee9bdce9e565fe49b87d1ceb47d6c5208ffafa126fd4c70c6"),
    ("lorentz5", "conjugate", 1):
        (0, "cae95f2c08154add2fbc17a9e0dddac081025ea1b1280abd46b098fbe8088e74"),
    ("lorentz5", "conjugate", 2):
        (0, "82e97f084caff191c26a8dab03ff833490d771cd19224a9a670b916f83ab2732"),
    ("psd3", "conjugate", 0):
        (0, "2540f675bd7fc84f42f6dc98a938f9d7c5cef11f43a28c03c03a9d0d8cb9dc09"),
    ("psd3", "conjugate", 1):
        (0, "8c4c4e31055e3ce066312b0b7bb4ab2220647d2cdc15132fcd1276b329b01a20"),
    ("psd3", "conjugate", 2):
        (0, "7a17bbc6850613d16dd48de0e3511388ac93de5fab42bb6cbbe731483a1eb16b"),
    ("psd2+lorentz3+orthant2", "inversion", 0):
        (0, "1dc9f94e0d7d6b96f7868278563ad9520a0c1185c809d8d90ab917d9e47cd5a7"),
    ("psd2+lorentz3+orthant2", "inversion", 1):
        (0, "1fb93617fbd97a6cd341214cc5b60c01be68671ebe210e6b5cb09693578faf1b"),
    ("psd2+lorentz3+orthant2", "inversion", 2):
        (0, "fe982b2a5aef44f2626f17787683ff3565359180f33425d2a0b3233f990a21a1"),
    ("psd2+lorentz3+orthant2", "conjugate", 0):
        (0, "58207174ce8e7dbf29ccb79130610a5843197c83634d0fb4e46c0c59bb02b8ef"),
    ("psd2+lorentz3+orthant2", "conjugate", 1):
        (0, "daccef928a40f2a03d92bb9d4f88bd0d0e06f3c085c8a0dda415d5bb4d16c12f"),
    ("psd2+lorentz3+orthant2", "conjugate", 2):
        (0, "059e61ca347d53ec61cfe2253d676e549a5db84b2ff4b9e69108f753130ff6b4"),
}


def _main(capsys, argv):
    """cli.main's exit code and what it printed to stdout."""
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("cone, map_kind, seed", SUITE_DIGESTS, ids=str)
def test_suite_reports_are_pinned(cone, map_kind, seed, capsys, tmp_path):
    if cone in SUITE_CONES:
        cone_args = SUITE_CONES[cone]
    else:
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(SUM_CONE))
        cone_args = ["--cone-json", str(path)]
    code, out = _main(capsys, ["suite", *cone_args, "--map", map_kind,
                               "--trials", "5", "--seed", str(seed)])
    assert out.endswith("}\n")
    digest = hashlib.sha256(out.removesuffix("\n").encode()).hexdigest()
    assert (code, digest) == SUITE_DIGESTS[cone, map_kind, seed]


def test_repeated_main_calls_share_one_parser(capsys):
    """The parser is built once; later calls, after an error too, parse as the first did."""
    calls = [
        ["suite", *SUITE_CONES["lorentz5"], "--map", "inversion", "--trials", "5", "--seed", "1"],
        ["gauge", "--cone", "orthant", "--dim", "2", "--x", "[2,1]", "--y", "[1,3]"],
        ["suite", "--cone", "moebius", "--dim", "3", "--map", "inversion"],
    ]
    first = [_main(capsys, argv) for argv in calls]
    assert [code for code, _ in first] == [0, 0, 2]
    assert cli._build_parser() is cli._build_parser()
    assert [_main(capsys, argv) for argv in (*calls, calls[0])] == [*first, first[0]]


BAD_INPUTS = {
    "orthant_dim_0": ["suite", "--cone", "orthant", "--dim", "0", "--map", "inversion"],
    "psd_d_0": ["suite", "--cone", "psd", "--d", "0", "--map", "inversion"],
    "lorentz_dim_1": ["suite", "--cone", "lorentz", "--dim", "1", "--map", "inversion"],
    "gauge_nan": ["gauge", "--cone", "orthant", "--dim", "2", "--x", "[NaN,1]", "--y", "[1,1]"],
    "gauge_overflow": ["gauge", "--cone", "orthant", "--dim", "2", "--x", "[1e999,1]",
                       "--y", "[1,1]"],
    "gauge_string": ["gauge", "--cone", "orthant", "--dim", "2", "--x", '["a",1]',
                     "--y", "[1,1]"],
    "atomicity_nan": ["atomicity", "--cone", "orthant", "--dim", "2", "--x", "[NaN,1]"],
    "tol_nan": ["suite", "--cone", "orthant", "--dim", "2", "--map", "inversion", "--tol", "nan"],
    "tol_inf": ["suite", "--cone", "orthant", "--dim", "2", "--map", "inversion", "--tol", "inf"],
}

BAD_CONE_JSON = {
    "json_orthant_0": {"kind": "orthant", "n": 0},
    "json_empty_sum": {"kind": "sum", "parts": []},
    "json_not_an_object": [1],
    "json_null_size": {"kind": "orthant", "n": None},
    # sizes must be JSON integers: none of these is truncated or converted
    "json_fractional_size": {"kind": "orthant", "n": 2.5},
    "json_string_size": {"kind": "orthant", "n": "3"},
    "json_boolean_size": {"kind": "orthant", "n": True},
    "json_float_psd_order": {"kind": "psd", "d": 2.0},
    "json_fractional_sum_part": {"kind": "sum", "parts": [{"kind": "orthant", "n": 2},
                                                          {"kind": "lorentz", "n": 3.9}]},
}


@pytest.mark.parametrize("case", [*BAD_INPUTS, *BAD_CONE_JSON])
def test_bad_input_exits_two_with_an_error_line(case, capsys, tmp_path):
    if case in BAD_CONE_JSON:
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(BAD_CONE_JSON[case]))
        argv = ["suite", "--cone-json", str(path), "--map", "inversion"]
    else:
        argv = BAD_INPUTS[case]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
