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
        (0, "cbbf2baf4886a979bc4d24afd8dd254584ef82267853591cd968598577d68fd7"),
    ("orthant6", "inversion", 1):
        (0, "9905ffb97407462651410411e43a82839857516a2d3ed1d6dd5ade814ffd712f"),
    ("orthant6", "inversion", 2):
        (0, "8a4500b84ec39c2bc2201c6a078c44229585534c82a8198c663d96e5360d8b4f"),
    ("lorentz5", "inversion", 0):
        (0, "b9c934bbc0e3cc00d2fac2d2f8dd9b71bdee536fcb6f9a128b7c66abc123f7b2"),
    ("lorentz5", "inversion", 1):
        (0, "40dbfcf58d15f0ca23610f700ceb37aeaaa06914c4ab600c6a46bbe2260ca0bd"),
    ("lorentz5", "inversion", 2):
        (0, "42f74f753d3bc060086e2b9ace6e67837c9470b04dd5157bec7bbc000653d709"),
    ("psd3", "inversion", 0):
        (0, "34d9d6133b50ebaef315930f7498cb08b1a914ba56f64903148b61fbf1a2f5dc"),
    ("psd3", "inversion", 1):
        (0, "2831d03df2ea33588a5772f268012063641cf62203bd9bfc23b6d3a141362b16"),
    ("psd3", "inversion", 2):
        (0, "75165ec59b91b77d7737cdbd3bd5478119b3940ac381ca05ea5a76541aa84adc"),
    ("orthant6", "conjugate", 0):
        (0, "204f9ccf26be4051f920df3158111a8db064a0ddbb9f4a1cc57408c26e336841"),
    ("orthant6", "conjugate", 1):
        (0, "17ce9415b40db113c4191cf8f81fb226fd29b26680c9ac18efb5daba8f94782a"),
    ("orthant6", "conjugate", 2):
        (0, "9171ea3b73752da02c41663f6ab86d6cdf6b91b78fc5c748b941bd1c51cbeb5d"),
    ("lorentz5", "conjugate", 0):
        (0, "82e66b043b703ba553a5503994b2803ff5b0909833cae7ba7125879beadcab46"),
    ("lorentz5", "conjugate", 1):
        (0, "60b061662a04b3bd5823813cc550f3698905800488dfd22f2b572b9662f26ba8"),
    ("lorentz5", "conjugate", 2):
        (0, "75f7da8968a8990303a4c4524b6ed4e0ecc34bb67fbdbfbad93e66df632743b9"),
    ("psd3", "conjugate", 0):
        (0, "ddbb0d5a36eae228c357f8c7c5f4cd6d1674b7db30f5679ebee6f300c2763d94"),
    ("psd3", "conjugate", 1):
        (0, "1fb009b58d594afae352a617d004d6b618b1c9502ec63233d0852348d4ad9fbd"),
    ("psd3", "conjugate", 2):
        (0, "59d802f6a87e36cadcf023fded8c86bd86fc66508f0b1af2c662575149a2e82c"),
    ("psd2+lorentz3+orthant2", "inversion", 0):
        (0, "3804174ae1446dddfa8520a8b64e843f625f00fde50d85a1082f60e3f4df8df4"),
    ("psd2+lorentz3+orthant2", "inversion", 1):
        (0, "947add37219b19c9c5d98d8bd3824b24855ea8c50c7d613268d6f0ef227b2608"),
    ("psd2+lorentz3+orthant2", "inversion", 2):
        (0, "e787c33192cdb846c31d822e5b470e374b8d03ab003831e73c70f48bdc40d640"),
    ("psd2+lorentz3+orthant2", "conjugate", 0):
        (0, "d748e2a5e0001b2445f58ce6b5028c82ed92550a71b525e141272195840b55b0"),
    ("psd2+lorentz3+orthant2", "conjugate", 1):
        (0, "61c46d153b8af5e60b06787db3055fe485c74d69a565062094bdf5c499fb40a2"),
    ("psd2+lorentz3+orthant2", "conjugate", 2):
        (0, "c917f779371d594e6694d65c743e2dfc8518c681e39334a852b68a2907e3f875"),
}


# the negative controls: deliberately wrong maps, whose suites fail
CONTROL_DIGESTS = {
    ("orthant3", "identity", 0):
        (1, "291091e41da1c85382f4b12e093a875486a611788bfa362614e5f096b0f2dc83"),
    ("orthant3", "identity", 1):
        (1, "7cb2dd38b6151e581daa318cf56adcb7146a64e37dbda40f4866bdea1bd39c0a"),
    ("orthant3", "identity", 2):
        (1, "e3dfc4bde9bd26bfd840d7db980e4f552c64f7b2066f865e39bd1932b2cc4d16"),
    ("orthant3", "power3", 0):
        (1, "10a8f27af7ed74ee7e713fdd35e916501ab3de53d2044ad200bd629b7a265b1d"),
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
