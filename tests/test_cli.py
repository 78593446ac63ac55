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
        (0, "babfd9a0dc1f448d497bf0c208cdb0b3a9933c0a0ae2fbebd9deeb86d1028f31"),
    ("orthant6", "inversion", 1):
        (0, "5e5ba2a5148fc64b14c1aa05d8421a0062f878a15fcd61552751b2087727144f"),
    ("orthant6", "inversion", 2):
        (0, "2512fc5b40ad766398cb73f85efa3d94506325a8f701566f2d0b1b01bd116018"),
    ("lorentz5", "inversion", 0):
        (0, "01a1495e79b619d4fe95f729a80f492dde47a4a46ce3ff9379ec336e7803097e"),
    ("lorentz5", "inversion", 1):
        (0, "2a18a69cd72f5064f1b8de4157a56ea43df5a766db94d6ac72456894505b7efa"),
    ("lorentz5", "inversion", 2):
        (0, "c90992f57e2ec0d8433cc837007abc9a5ae2893df034ac554b395d5668763516"),
    ("psd3", "inversion", 0):
        (0, "3b22b594dbe38e9d43e777700ea9cecd8b06586441499beb7636b017d423b9c3"),
    ("psd3", "inversion", 1):
        (0, "9428d71fcfef6199021b32d2a3fc1f6bd981c6a995dac8c727f4cbf2b1cad5d7"),
    ("psd3", "inversion", 2):
        (0, "f5257aefaa3683f3961ff12bd999cc2e112a2df986702231b9d9ce083e03a86e"),
    ("orthant6", "conjugate", 0):
        (0, "95b4e73fb2909611fd7d49c255a68b8c8c885d422034ccc3e7312ab4821af6ac"),
    ("orthant6", "conjugate", 1):
        (0, "ad9a446ebb79f6f85a5813bdf2cb8ae7df633d1d7d1c0c1cf9beaf3ef2309cb2"),
    ("orthant6", "conjugate", 2):
        (0, "7946e54f5b91a86be5bc0ca0ffa8c932eacabaa7d6e3769d024caa88eccaa309"),
    ("lorentz5", "conjugate", 0):
        (0, "67e9f8c563ec72193b4dade9119bc466ebef79a40b7d001db4591e5068bf10b9"),
    ("lorentz5", "conjugate", 1):
        (0, "5bc2334f30011a891b27a94c2abbb8c225151e2e436e33f16d8f73c718c6e504"),
    ("lorentz5", "conjugate", 2):
        (0, "fc43109b56eb73164af8b8dc3e57a6287a7c7da8b3bf997cc39ee9b2a3da6b94"),
    ("psd2+lorentz3+orthant2", "inversion", 0):
        (0, "404b1df662df2154c6b3333481586a4cddfd654ccb87c00f4b83a518bce4106d"),
    ("psd2+lorentz3+orthant2", "inversion", 1):
        (0, "c3fa8e3b965e648d78e61795dadd3412bf75c984ad793ab75181efb6f035647d"),
    ("psd2+lorentz3+orthant2", "inversion", 2):
        (0, "33df87bb22d7fa6c8f214e5ff4fa9d3783d10d0e559e48336f586b0db0a8bcff"),
    ("psd2+lorentz3+orthant2", "conjugate", 0):
        (0, "867c29ea73f3c8f75b3d18543d26ea6efd78bdf9dba0d9143318728267783c8f"),
    ("psd2+lorentz3+orthant2", "conjugate", 1):
        (0, "f6720bdc0cd777c4d7644e2198ef779ffee43ecadd85d7313067064463017249"),
    ("psd2+lorentz3+orthant2", "conjugate", 2):
        (0, "9df33804f926b0bd92b107ace2466a2f500eac36f11d50dad3efc7168d3473e0"),
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
