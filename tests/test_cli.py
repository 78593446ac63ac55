"""Command line behaviour: outputs, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("cone", ["orthant6", "lorentz5", "psd3"])
@pytest.mark.parametrize("map_kind", ["inversion", "conjugate"])
@settings(max_examples=5)
@given(seed=st.integers(0, 10**6))
def test_the_suite_passes_a_correct_map_at_every_seed(cone, map_kind, seed):
    # every section, the extremal, atomicity and interval ones included, must
    # pass a correct map whatever the seed
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["suite", *SUITE_CONES[cone], "--map", map_kind, "--trials", "3",
                         "--seed", str(seed)])
    report = json.loads(out.getvalue())
    assert code == 0, [(p["name"], p["max_residual"]) for p in report["properties"]
                       if not p["pass"]]


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
    for bad in (["1.5", -2.0], [True, -2.0], [None, -2.0]):
        with pytest.raises(ValueError, match="expected a JSON number"):
            vector_from_json({"coords": bad})


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
        (0, "f7db15cccacfcf072680041dc5ca98a498033c6d61c22d8a829115ddaec232d4"),
    ("orthant6", "inversion", 1):
        (0, "01ec5a056793fb99f8bea1cdb33c7683275f974ef080a137ca0b949681b8f361"),
    ("orthant6", "inversion", 2):
        (0, "847550d37cebe3d4b5d99e6779a42aeb922d3569e429a8cc183c3d87488cb176"),
    ("lorentz5", "inversion", 0):
        (0, "eb982f3b79cd171481d9957285545ff1b2cb376d512e4e59845f9785fe31e214"),
    ("lorentz5", "inversion", 1):
        (0, "7499fe2cac6bf19dc2d9a787fecd79d0b80ccc34722f4d7faad32158d7d392ad"),
    ("lorentz5", "inversion", 2):
        (0, "cce463d3df6548bfa55ab2a09bf5cc6c0a3c7c5be878becdb25a1d8706d4a16d"),
    ("psd3", "inversion", 0):
        (0, "7f2874a0d26793c359132084b96f8591f6403c92d51689906f32dd9d7465502a"),
    ("psd3", "inversion", 1):
        (0, "c44c53f4fa9869cbb7478dd1e6ed44fac5f10152c8a444120c9141672552e47c"),
    ("psd3", "inversion", 2):
        (0, "ebc9fe24438f06e9965b7bff5c694ea6df422023ea32b0819ec1149794cbada9"),
    ("orthant6", "conjugate", 0):
        (0, "a781bbac8de4428c35d0ee62b7e7834387331bc99d2c5728b0d84f2711aa0e0c"),
    ("orthant6", "conjugate", 1):
        (0, "46268616928dc77f7bda02ecc57b0928427fbab861645eb91509079d3c5b6e1e"),
    ("orthant6", "conjugate", 2):
        (0, "8e586f7dad6901cfa723b538e50b2a269876e8c23f79d70c5baba607890c42a7"),
    ("lorentz5", "conjugate", 0):
        (0, "fa4f47c550cca9b3d3d3526259808d866d564b7e2c8e323fee46303778361dcc"),
    ("lorentz5", "conjugate", 1):
        (0, "7000c91840d413e68734da840837ed6f9487a63a22e49fe88f885188215ea605"),
    ("lorentz5", "conjugate", 2):
        (0, "5025cdd7924ca8a9beefd96f32eba25aa529a905b70155e1e4220288113b4f7f"),
    ("psd3", "conjugate", 0):
        (0, "89d001645c30af23dad33ee0c045b5d3db3d9e84d058f36cbef33638b6f063e2"),
    ("psd3", "conjugate", 1):
        (0, "5877a2be7c0d0623ada9894711f0d59e8ca0f75e6dca8017fbf396d0929bd0fb"),
    ("psd3", "conjugate", 2):
        (0, "83c05d23c7cc2e602daa4f35865cfd263af4e555231f4d50a1855f1572b6e5dd"),
    ("psd2+lorentz3+orthant2", "inversion", 0):
        (0, "3c47d9ee16175e07f98abda33319020955f6844654ce03e2b9bd992cd5675944"),
    ("psd2+lorentz3+orthant2", "inversion", 1):
        (0, "28b596540a30fade3d1e759d13b99392802b149cfd5f22191903d6641af1feda"),
    ("psd2+lorentz3+orthant2", "inversion", 2):
        (0, "895c5d04057701a81c2ecab4c7ee27d5c3ed8d1b4e27989b7c61f0e2a6d0ebeb"),
    ("psd2+lorentz3+orthant2", "conjugate", 0):
        (0, "f491d1764b1ed82cf09175beb0d2d9577cbe1b0e0e58c9778feb684916630061"),
    ("psd2+lorentz3+orthant2", "conjugate", 1):
        (0, "4c57f57b595e6d756be82499ff87bd72c7ee80fe554504769ac3fe0f1f58c3b2"),
    ("psd2+lorentz3+orthant2", "conjugate", 2):
        (0, "ec7216441bc0de694a5dda869b4abcf319901ad0ce542961f2ac726277a4e7d2"),
}


# the negative controls: deliberately wrong maps, whose suites fail
CONTROL_DIGESTS = {
    ("orthant3", "identity", 0):
        (1, "ee6bf28bb24f82fa7ec1b273822b9209e2bc986971eaaa103dc508a503928ae7"),
    ("orthant3", "identity", 1):
        (1, "c6b8b4f94076637f29c1d2280b0382a1f52f1e136fa546e376bcc2e93c821271"),
    ("orthant3", "identity", 2):
        (1, "426b733f7c24a61742f35c1d725278ecbdcd9f23e3f880559ede3e03d7a28f3f"),
    ("orthant3", "power3", 0):
        (1, "795ad36b427e996e8334ee3f5a5c7af0d05ddc12cfa315044c27619bca6231dd"),
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
    # coordinates must be JSON numbers: a numeric string or a boolean is not converted
    "gauge_numeric_string": ["gauge", "--cone", "orthant", "--dim", "2", "--x", '["2",1]',
                             "--y", "[1,1]"],
    "gauge_boolean": ["gauge", "--cone", "orthant", "--dim", "2", "--x", "[true,1]",
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

# fields that replace those of the orthant2 product {"n": 2, "unit": [1, 1], "table": ...},
# or a whole document that is not an object; passed through --product to --map recovered
_ORTHANT2_TABLE = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
BAD_PRODUCT_JSON = {
    "product_fractional_size": {"n": 2.9},
    "product_string_size": {"n": "2"},
    "product_boolean_unit": {"unit": [True, 1]},
    "product_string_unit": {"unit": ["1", 1]},
    "product_boolean_table_entry": {"table": [[[True, 0], [0, 0]], _ORTHANT2_TABLE[1]]},
    "product_string_table_entry": {"table": [[["1", 0], [0, 0]], _ORTHANT2_TABLE[1]]},
    "product_not_an_object": [1],
}


@pytest.mark.parametrize("case", [*BAD_INPUTS, *BAD_CONE_JSON, *BAD_PRODUCT_JSON])
def test_bad_input_exits_two_with_an_error_line(case, capsys, tmp_path):
    path = tmp_path / "input.json"
    if case in BAD_CONE_JSON:
        path.write_text(json.dumps(BAD_CONE_JSON[case]))
        argv = ["suite", "--cone-json", str(path), "--map", "inversion"]
    elif case in BAD_PRODUCT_JSON:
        change = BAD_PRODUCT_JSON[case]
        product = ({"n": 2, "unit": [1, 1], "table": _ORTHANT2_TABLE, **change}
                   if isinstance(change, dict) else change)
        path.write_text(json.dumps(product))
        argv = ["reconstruct", "--cone", "orthant", "--dim", "2", "--map", "recovered",
                "--product", str(path)]
    else:
        argv = BAD_INPUTS[case]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
