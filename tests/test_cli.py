"""Command line behaviour: outputs, exit codes, determinism."""

import argparse
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


def test_every_suite_section_reports_when_j_cannot_be_built(capsys):
    # the identity map has no inversion j: the properties that read it carry
    # the error that building j raised, and the others still evaluate
    argv = ["suite", "--cone", "orthant", "--dim", "3", "--map", "identity", "--trials", "5"]
    code, out = _main(capsys, argv)
    props = {p["name"]: p for p in json.loads(out)["properties"]}
    assert code == 1
    _, text = _main(capsys, [*argv, "--format", "text"])
    lines = {line.split("]")[1].split(":")[0].strip(): line for line in text.splitlines()
             if line.startswith("  [")}
    # each property of the sections after reconstruction, in report order, and
    # whether it reads j
    expected = {"extremal/map_fixes_unit": True, "extremal/extremal_normalization": False,
                "extremal/state_gauge_identity": True, "atomicity/sampled_inequality": False,
                "atomicity/maximizer_attains": False, "atomicity/gauge_vs_map_route": True,
                "interval/interval_is_segment": False}
    assert [name for name in props if name.split("/")[0] in
            ("extremal", "atomicity", "interval")] == list(expected)
    for name, reads_j in expected.items():
        if reads_j:
            assert props[name]["max_residual"] == math.inf
            assert lines[name].endswith(
                " error=DerivativeDomainError: image difference left the open cone")
        else:
            assert props[name]["pass"] is True and "error=" not in lines[name]


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
    "orthant3": ["--cone", "orthant", "--dim", "3"],
    "orthant6": ["--cone", "orthant", "--dim", "6"],
    "lorentz5": ["--cone", "lorentz", "--dim", "5"],
    "psd3": ["--cone", "psd", "--d", "3"],
}
# passed through --cone-json
SUM_CONE = {"kind": "sum", "parts": [{"kind": "psd", "d": 2}, {"kind": "lorentz", "n": 3},
                                     {"kind": "orthant", "n": 2}]}

SUITE_DIGESTS = {
    ("orthant6", "inversion", 0):
        (0, "91fda89cab14a922d190312bbf68bbf1cc42ae6563b29cff2ac217354f58ead6"),
    ("orthant6", "inversion", 1):
        (0, "21ce91c7e176090983948a1059dd3ffcd894d1afd3cd3b0ffe09c065ab265227"),
    ("orthant6", "inversion", 2):
        (0, "751d12a8227093b016c366a3d7c8bcd780241dd09c64964410aa4f5ef2ec99d6"),
    ("lorentz5", "inversion", 0):
        (0, "94a5d03ab3c7ee9318039df6fa8d93765596b50877ed4b249b14ab66fe7d4006"),
    ("lorentz5", "inversion", 1):
        (0, "d19372678017df0cc76b21f75c09b1d096f0938248a536622b4df65dc28fe631"),
    ("lorentz5", "inversion", 2):
        (0, "705e57553ed1b96bb7c70341d0999a3af54fbc9dad2c81fca3e4d40ff23f9414"),
    ("psd3", "inversion", 0):
        (0, "19899c5af2d20e8878da81854b514b075ac5cebe4a6747fb8398a6fc3f3a1690"),
    ("psd3", "inversion", 1):
        (0, "53e83eae7604da99ee66ac688167f464f3a3dc840134a8cb981b7a35ee4493db"),
    ("psd3", "inversion", 2):
        (0, "d9d17c890e64d68fc32f0f6435c6167fb3caf0b00f3d435783614cbf1fb5e3bd"),
    ("orthant6", "conjugate", 0):
        (0, "dbbeef106d47735139cee78e00bda9635192ef642a6881bf5cfa5685120653bf"),
    ("orthant6", "conjugate", 1):
        (0, "fca776f074e589b042571ce1f7cd70271c4c789424cfd0508d954a0da99a7100"),
    ("orthant6", "conjugate", 2):
        (0, "112e2d6afc3b918094146626c0de965206d8a40da6f77ec2f1e1652a1b992121"),
    ("lorentz5", "conjugate", 0):
        (0, "b234856258fb118b3602997bc0450b98c5572cfa0f6388b41b808cd886a0b391"),
    ("lorentz5", "conjugate", 1):
        (0, "2fb3eab56365c2e8c6f462c46ebef05ef2f5d5df2d4e31b1fe681d46b3c09196"),
    ("lorentz5", "conjugate", 2):
        (0, "fec911888c5870f60681afa9bb4457cc996221d65d83d385971e286458ae9eb2"),
    ("psd3", "conjugate", 0):
        (0, "4665f4043085229699028a49b1f04fa425d3e2f050cd9c8b8a0aa42188fae757"),
    ("psd3", "conjugate", 1):
        (0, "731c2ceb33f21e8ea3581b7c76f0afac650afef496d4fd4916b01ea732dd6924"),
    ("psd3", "conjugate", 2):
        (0, "0ba88ae7cab8bcb52ca14417173016a03239dc137c304813b15275aacb7259e7"),
    ("psd2+lorentz3+orthant2", "inversion", 0):
        (0, "afa7e78b3bb64a26ff6c20edac97753384a4fe067245e6c7e68fd422d047cf1e"),
    ("psd2+lorentz3+orthant2", "inversion", 1):
        (0, "731683b557495b8a245865a1654e0a5e0c9acd8f845027aead20c90702898e0b"),
    ("psd2+lorentz3+orthant2", "inversion", 2):
        (0, "e80f728a4a8ee041050153bca6320d966e516d3df0610b81cd3b729a910a42ed"),
    ("psd2+lorentz3+orthant2", "conjugate", 0):
        (0, "da0432b2c6e49370ef8d434e9022af97348a85212b4203f0437d1e0bd24efaa3"),
    ("psd2+lorentz3+orthant2", "conjugate", 1):
        (0, "813a554c5d4b5c5d0ac93c4f4d2373e8329492dd5add730e65c6b8c6e1c88b07"),
    ("psd2+lorentz3+orthant2", "conjugate", 2):
        (0, "01f11cb4d933ad366a199ed1c7b3917ef69eb2f7d5a6fefd1dc7fd4f23e20d62"),
}


# the negative controls: deliberately wrong maps, whose suites fail
CONTROL_DIGESTS = {
    ("orthant3", "identity", 0):
        (1, "135c293a561ae53162b5944cd587a9c09514c71cef85086930cb478657568606"),
    ("orthant3", "identity", 1):
        (1, "44baeaa6ce8732e178c8072af77e621f59ea1a94e74fea3d74e3b9c35ddb0a52"),
    ("orthant3", "identity", 2):
        (1, "95a07d728a737c679dc4a2d54c4f6217c3e4c59425b92a64b83d75c3173ba129"),
    ("orthant3", "power3", 0):
        (1, "2bb6477f8c22bc7a9a8730e62abbdca10f273ac175432701888d59f41a669b0d"),
}
PINNED_SUITES = {**SUITE_DIGESTS, **CONTROL_DIGESTS}


def _main(capsys, argv):
    """cli.main's exit code and what it printed to stdout."""
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("cone, map_kind, seed", PINNED_SUITES, ids=str)
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
    assert (code, digest) == PINNED_SUITES[cone, map_kind, seed]


CONE_FLAGS = {"-h", "--help", "--cone", "--cone-json", "--dim", "--d", "--out"}
COMMAND_FLAGS = {
    "suite": {"--map", "--product", "--trials", "--seed", "--tol", "--format"},
    "reconstruct": {"--map", "--product", "--seed"},
    "gauge": {"--x", "--y"},
    "atomicity": {"--trials", "--seed", "--tol", "--format", "--x"},
}


def test_each_subcommand_takes_exactly_the_flags_it_reads(capsys):
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert {name: set(p._option_string_actions) for name, p in subparsers.choices.items()} \
        == {name: CONE_FLAGS | flags for name, flags in COMMAND_FLAGS.items()}
    gauge = ["gauge", "--cone", "orthant", "--dim", "2", "--x", "[2,1]", "--y", "[1,3]"]
    assert cli.main(gauge) == 0
    assert cli.main([*gauge, "--trials", "5"]) == 2
    assert "unrecognized arguments: --trials 5" in capsys.readouterr().err
    assert cli.main(["reconstruct", *SUITE_CONES["orthant3"], "--map", "inversion",
                     "--format", "text"]) == 2


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
