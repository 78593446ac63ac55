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
        (0, "babfd9a0dc1f448d497bf0c208cdb0b3a9933c0a0ae2fbebd9deeb86d1028f31"),
    ("orthant6", "inversion", 1):
        (0, "5e5ba2a5148fc64b14c1aa05d8421a0062f878a15fcd61552751b2087727144f"),
    ("orthant6", "inversion", 2):
        (0, "2512fc5b40ad766398cb73f85efa3d94506325a8f701566f2d0b1b01bd116018"),
    ("lorentz5", "inversion", 0):
        (0, "01a1495e79b619d4fe95f729a80f492dde47a4a46ce3ff9379ec336e7803097e"),
    ("lorentz5", "inversion", 1):
        (0, "eb91d0a4b7c04c7a5367f5e82d29ac9f9bae8794259c7fd5225a3e77f635609d"),
    ("lorentz5", "inversion", 2):
        (0, "bd46063c58e3803c8c933e8ab08d03b8402d7d01ff2f72a2c78477b9645c88a4"),
    ("psd3", "inversion", 0):
        (0, "7671e354ded7eed660bd2932404f08c0c68c27efbe8cd0af39895ff64776c6d8"),
    ("psd3", "inversion", 1):
        (0, "289e0a1f4f5d246e256a268ceb6aedd7c45bd30986bff439be37db88f25dd778"),
    ("psd3", "inversion", 2):
        (0, "860ee09f8cb9b4b16fca0fc825da71c1f5c46eaecd078dd79e63b4de5bd8c2f9"),
    ("orthant6", "conjugate", 0):
        (0, "92f75c183f9ec523cbf8ae86c566404617a8a2d458ebc9d3aff8de286ab724f5"),
    ("orthant6", "conjugate", 1):
        (0, "dde0c3d867b9a5f9fb9554e6e523fbc931dd80be9c0730202703a04bf85947af"),
    ("orthant6", "conjugate", 2):
        (0, "971d264a6523a261ac544ea2a11840cc6b8591eb87fb89e9e4e9de75de4994e0"),
    ("lorentz5", "conjugate", 0):
        (0, "93835bc66ca70b043efdd6ae1043d19b8d1ceca53010f6f0e1babed94c1892d6"),
    ("lorentz5", "conjugate", 1):
        (0, "5b4c5563d2ab0703699f176f681bca602a5e8093b355365c08f3d379ca194985"),
    ("lorentz5", "conjugate", 2):
        (0, "ce5d7ebbfe9f30decfec09f365741debcfc00876da04d2d23309d48491bd0643"),
    ("psd3", "conjugate", 0):
        (0, "bf84fd2c5c4188f7a86755138150ebee3884f7df70dd3df6c972f150b1287390"),
    ("psd3", "conjugate", 1):
        (0, "0377e7d04eaee09330052bcc69f5e66d53c380162d88ff76e39fa1a068b4f9d3"),
    ("psd3", "conjugate", 2):
        (0, "efcbc74cf3967cf291f0cfaf5a056c4f9845d5292305cb3f830bacd74378e220"),
    ("psd2+lorentz3+orthant2", "inversion", 0):
        (0, "404b1df662df2154c6b3333481586a4cddfd654ccb87c00f4b83a518bce4106d"),
    ("psd2+lorentz3+orthant2", "inversion", 1):
        (0, "c3fa8e3b965e648d78e61795dadd3412bf75c984ad793ab75181efb6f035647d"),
    ("psd2+lorentz3+orthant2", "inversion", 2):
        (0, "33df87bb22d7fa6c8f214e5ff4fa9d3783d10d0e559e48336f586b0db0a8bcff"),
    ("psd2+lorentz3+orthant2", "conjugate", 0):
        (0, "7cf2c8d1909704bb68c7498b0378a1ee9420607f1a5c3354fe6b9fc34bb6259f"),
    ("psd2+lorentz3+orthant2", "conjugate", 1):
        (0, "5ba661c32fb3794387c509aefc5b35e9206a267368dc375812b058c6d0d9c429"),
    ("psd2+lorentz3+orthant2", "conjugate", 2):
        (0, "c51f53d5f59747269bea64ddec9c50d1cdf2ebc6e2541ba7558eba4e6b2e07ca"),
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
