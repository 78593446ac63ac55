"""The benchmark's three workloads: their inputs, operations and output checks.

A workload is a fixed list of operations built once per process from the
seed.  Each operation calls symcone's public API only; its check compares
the output against `reference` (numpy formulas computed apart from the
program) or against a property the method must have.  The list interleaves
cones round-robin, so a slow stretch of the host falls on every cone alike.

An operation *fails* when it raises or when a correct map gets a FAIL
report; it is *wrong* when it completes and its check rejects the output.
Two pinned operations reproduce known faults on inputs that do not depend on
the seed, so every pass fails the same share of operations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
import symcone as sc
from symcone import cli

TABLE_TOL = 1e-7    # recovered product tables sit within ~3e-9 of the formulas
GAUGE_RTOL = 1e-9   # closed-form gauges against pencil eigenvalues
MAX_COND = 100.0    # conjugating automorphisms this well conditioned extract at every seed tried

SUITE_TRIALS = 5
GEOMETRY_TRIALS = {"psd3": 12, "psd6": 6, "lorentz20": 12, "sum": 6}
PSD10_PAIRS = 6
EXTREMAL_TRIALS = 4


class FailedReport(Exception):
    """A correct map got a FAIL report; carries the failing property names."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None] = lambda out: None
    pinned: str | None = None   # the known fault this operation reproduces


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

CONES = {
    "orthant3": (sc.Orthant(3), ("orthant", 3)),
    "orthant6": (sc.Orthant(6), ("orthant", 6)),
    "lorentz5": (sc.Lorentz(5), ("lorentz", 5)),
    "lorentz20": (sc.Lorentz(20), ("lorentz", 20)),
    "psd3": (sc.SymPSD(3), ("psd", 3)),
    "psd4": (sc.SymPSD(4), ("psd", 4)),
    "psd6": (sc.SymPSD(6), ("psd", 6)),
    "psd10": (sc.SymPSD(10), ("psd", 10)),
    "sum": (sc.DirectSum((sc.SymPSD(3), sc.Lorentz(4), sc.Orthant(2))),
            ("sum", (("psd", 3), ("lorentz", 4), ("orthant", 2)))),
}


def space(name: str) -> sc.OrderUnitSpace:
    return sc.make_space(CONES[name][0])


def inversion(sp: sc.OrderUnitSpace) -> sc.Inversion:
    return sc.Inversion(sc.builtin_algebra(sp))


def conjugated(sp: sc.OrderUnitSpace, rng: np.random.Generator) -> sc.LinearConjugate:
    """`conjugated_inversion(sp, s)` at the first seeded s whose automorphisms
    (drawn at s and s + 1) have condition at most MAX_COND.

    Worse conditioned draws are skipped (22% of them on psd3, none on
    orthant6 or lorentz5): at some of them extraction fails, which would make
    the failed share of a run depend on the seed.  The pinned psd4 operation
    keeps that fault in the workload.
    """
    while True:
        s = int(rng.integers(2**31 - 1))
        if all(np.linalg.cond(sc.random_cone_automorphism(sp.cone, t)) <= MAX_COND
               for t in (s, s + 1)):
            return sc.conjugated_inversion(sp, s)


def round_robin(*per_cone: list[Op]) -> list[Op]:
    """First operation of every cone, then the second of every cone, and so on."""
    out = []
    for k in range(max(len(ops) for ops in per_cone)):
        out += [ops[k] for ops in per_cone if k < len(ops)]
    return out


def _report_passed(report: sc.VerificationReport) -> sc.VerificationReport:
    if not report.passed:
        raise FailedReport(", ".join(p.name for p in report.failing()))
    return report


# --------------------------------------------------------------------------
# recover: product recovery from inversions
# --------------------------------------------------------------------------

def table_check(cone: str) -> Callable[[sc.ProductTensor], str | None]:
    """Check of a recovered product against the reference formula for the cone."""
    table = ref.product_table(CONES[cone][1])
    unit = ref.unit(CONES[cone][1])

    def check(tensor):
        dev = float(np.abs(tensor.table - table).max())
        if dev > TABLE_TOL or not np.array_equal(tensor.unit, unit):
            return f"product table off the formula by {dev:.3e}"
        return None
    return check


def recover(seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)

    def extract(cone, make_map, label, pinned=None):
        sp = space(cone)
        map_spec = make_map(sp)
        return Op(f"extract {cone} {label}",
                  lambda: sc.extract_product(sc.inversion_j(map_spec, sp), sp),
                  table_check(cone), pinned)

    def conj(sp):
        return conjugated(sp, rng)

    return round_robin(
        [extract("orthant6", inversion, "inversion"), extract("orthant6", conj, "conjugated")],
        [extract("lorentz5", inversion, "inversion"), extract("lorentz5", conj, "conjugated")],
        [extract("psd3", inversion, "inversion"), extract("psd3", conj, "conjugated")],
        [extract("psd4", inversion, "inversion"),
         extract("psd4", lambda sp: sc.conjugated_inversion(sp, 17), "conjugated_inversion(17)",
                 pinned="ExtractionError: unit-law residual 1.823e-8 > 1e-8")],
        [extract("sum", inversion, "inversion")],
    )


# --------------------------------------------------------------------------
# certify: the verification battery through the command line
# --------------------------------------------------------------------------

def certify(seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    path = os.path.join(out_dir, f"certify-{os.getpid()}.json")

    def suite(argv: list[str], expect_pass: bool = True) -> Callable[[], tuple]:
        suite_seed = int(rng.integers(10**6))

        def run():
            code = cli.main(["suite", *argv, "--trials", str(SUITE_TRIALS),
                             "--seed", str(suite_seed), "--out", path])
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
            report = json.loads(text)
            failing = [p["name"] for p in report["properties"] if not p["pass"]]
            if failing and expect_pass:
                raise FailedReport(f"exit {code}: " + ", ".join(failing))
            return code, text, report, failing
        return run

    def check_passed(out):
        code, _, report, _ = out
        if code != 0 or report["pass"] is not True or not report["properties"]:
            return f"exit {code} with pass={report['pass']} on a passing report"
        return None

    control = suite(["--cone", "orthant", "--dim", "3", "--map", "identity"], expect_pass=False)
    control_bytes = control()[1]

    def check_control(out):
        code, text, _, failing = out
        if code != 1 or "reversing/gauge_reversal" not in failing:
            return f"identity map not caught: exit {code}, failing {failing}"
        if text != control_bytes:
            return "repeated identical suite run gave different bytes"
        return None

    lorentz = space("lorentz5")
    readme_map = inversion(lorentz)

    def passing(label, argv):
        return Op(f"suite {label}", suite(argv), check_passed)

    return round_robin(
        [passing("orthant6 inversion", ["--cone", "orthant", "--dim", "6", "--map", "inversion"])],
        [passing("psd3 inversion", ["--cone", "psd", "--d", "3", "--map", "inversion"])],
        [Op("suite orthant3 identity (negative control)", control, check_control)],
        [Op("verify_reconstruction lorentz5 inversion trials=200 seed=42",
            lambda: _report_passed(sc.verify_reconstruction(readme_map, lorentz,
                                                            trials=200, seed=42)),
            pinned="symmetry_conjugation is Infinity: symmetry_at's 1e-9 gate "
                   "raised at 1.138e-9")],
    )


# --------------------------------------------------------------------------
# geometry: gauges, bisections, eigensolves and the extremal checks
# --------------------------------------------------------------------------

def geometry(seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)

    def draw() -> int:
        return int(rng.integers(10**6))

    def geometry_op(cone):
        sp, trials, suite_seed = space(cone), GEOMETRY_TRIALS[cone], draw()
        return Op(f"verify_cone_geometry {cone}", lambda: _report_passed(
            sc.verify_cone_geometry(sp, trials=trials, seed=suite_seed)))

    def gauge_op(k, sp, cone):
        x = sc.sample_interior(sp, draw(), 1.0)
        y = sc.sample_interior(sp, draw(), 1.0)
        expect = (ref.gauge_M(cone, x, y), ref.gauge_m(cone, x, y),
                  ref.thompson_distance(cone, x, y), ref.order_unit_norm(cone, x - y))

        def gauges():
            return (sc.gauge_M(sp, x, y), sc.gauge_m(sp, x, y),
                    sc.thompson_distance(sp, x, y), sc.order_unit_norm(sp, x - y))

        def check(out):
            names = ("gauge_M", "gauge_m", "thompson_distance", "order_unit_norm")
            bad = [f"{n} {v!r} vs {e!r}" for n, v, e in zip(names, out, expect)
                   if not ref.close(v, e, GAUGE_RTOL)]
            return "; ".join(bad) or None

        return Op(f"gauges psd10 pair {k}", gauges, check)

    def extremal_ops(cone, interval: bool):
        sp = space(cone)
        inv = inversion(sp)
        g = sc.sample_interior(sp, draw(), 1.0)
        s = draw()
        ops = [
            Op(f"check_state_gauge_identity {cone}", lambda: _report_passed(
                sc.check_state_gauge_identity(inv, sp, trials=EXTREMAL_TRIALS, seed=s))),
            Op(f"check_strong_atomicity {cone}", lambda: _report_passed(
                sc.check_strong_atomicity(sp, inv, g, trials=16, seed=s))),
        ]
        if interval:
            x = sc.sample_interior(sp, draw(), 0.5)
            p = sc.state_extremal_pairs(sp, 1, draw())[0][1]
            ops.append(Op(f"check_order_interval_segment {cone}", lambda: _report_passed(
                sc.check_order_interval_segment(sp, x, p, trials=4 * EXTREMAL_TRIALS, seed=s))))
        return ops

    psd10 = space("psd10")
    return round_robin(
        [geometry_op("psd3")],
        [geometry_op("psd6"), *extremal_ops("psd6", interval=True)],
        # the Lorentz interval check trips its 1e-8 tolerance at some seeds
        [geometry_op("lorentz20"), *extremal_ops("lorentz20", interval=False)],
        [geometry_op("sum")],
        [gauge_op(k, psd10, CONES["psd10"][1]) for k in range(PSD10_PAIRS)],
    )


WORKLOADS = {"recover": recover, "certify": certify, "geometry": geometry}
