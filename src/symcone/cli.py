"""Command line entry points with deterministic report emission.

Subcommands:
  suite        run the full verification battery for a cone and map
  reconstruct  recover the product tensor and compare against ground truth
  gauge        print the two gauges and the Thompson distance of a pair
  atomicity    run the atomic-decomposition checks at a point

Each subcommand declares only the flags it reads.  Exit codes: 0 all
properties passed, 1 at least one property failed, 2 for usage or
configuration errors.  Reports are rendered canonically (fixed field order,
17 significant digits, no timestamps) so identical runs are byte-identical.

The suite calls every battery directly.  The inversion j is built once as a
report.Prerequisite and handed to the extremal and atomicity checkers, so if
its build raised, the properties that read j read Infinity with that
exception (the rule of report.measure) and the others still evaluate.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .cones import (
    Lorentz,
    Orthant,
    SymPSD,
    as_vector,
    cone_from_json,
    make_space,
    membership_slack,
    gauge_M,
    gauge_m,
    sample_interior,
    thompson_distance,
    verify_cone_geometry,
)
from .errors import SymconeError
from .extremal import (
    check_order_interval_segment,
    check_state_gauge_identity,
    check_strong_atomicity,
    state_extremal_pairs,
)
from .gauge_maps import (
    ComponentwisePower,
    Inversion,
    Recovered,
    conjugated_inversion,
    identity_map,
    verify_gauge_reversing,
)
from .jordan import (
    ProductTensor,
    builtin_algebra,
    check_jb_norm_conditions,
    check_qj_axioms,
)
from .reconstruction import cross_validate, extract_product, inversion_j, verify_reconstruction
from .report import Prerequisite, VerificationReport, canonical_json, merge_reports


class UsageError(Exception):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symcone",
        description="Verification toolkit for cone geometry and recovered Jordan products.")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--map": dict(choices=["inversion", "conjugate", "identity", "power3", "recovered"],
                      help="gauge map under test"),
        "--product": dict(help="product tensor JSON (for --map recovered)"),
        "--trials": dict(type=int, default=200),
        "--seed": dict(type=int, default=42),
        "--tol": dict(type=float, default=1e-7),
        "--format": dict(dest="fmt", choices=["json", "text"], default="json"),
    }

    def command(name, help, run, *flags):
        """A subcommand run by run(args), taking the cone flags, the given options and --out."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--cone", choices=["orthant", "lorentz", "psd"],
                       help="cone family (or use --cone-json)")
        p.add_argument("--cone-json", help="path to a cone description in JSON")
        p.add_argument("--dim", type=int, help="ambient dimension for orthant/lorentz")
        p.add_argument("--d", type=int, help="matrix order for the psd family")
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.add_argument("--out", help="write the report/tensor here instead of stdout")
        return p

    command("suite", "full verification battery", cmd_suite,
            "--map", "--product", "--trials", "--seed", "--tol", "--format")
    # --seed seeds the automorphism of --map conjugate
    command("reconstruct", "recover the product tensor", cmd_reconstruct,
            "--map", "--product", "--seed")

    p_gauge = command("gauge", "gauges and Thompson distance of a pair", cmd_gauge)
    p_gauge.add_argument("--x", required=True, help="first point, JSON array")
    p_gauge.add_argument("--y", required=True, help="second point, JSON array")

    p_atom = command("atomicity", "atomic decomposition checks", cmd_atomicity,
                     "--trials", "--seed", "--tol", "--format")
    p_atom.add_argument("--x", help="interior point, JSON array (default: seeded sample)")

    return parser


def _check_controls(args) -> None:
    """Refuse an out-of-range --trials, --tol or --seed, where the subcommand takes it."""
    if getattr(args, "trials", 1) < 1:
        raise UsageError("--trials must be >= 1")
    if not 0.0 < getattr(args, "tol", 1.0) < math.inf:
        raise UsageError("--tol must be finite and > 0")
    if getattr(args, "seed", 0) < 0:
        raise UsageError("--seed must be >= 0")


def _parse_point(text: str, space) -> np.ndarray:
    """The JSON array text as a vector of space."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"could not parse vector JSON: {exc}") from exc
    if not isinstance(data, list):
        raise UsageError("vector argument must be a JSON array")
    try:
        vec = as_vector(data)
    except ValueError as exc:
        raise UsageError(f"bad vector: {exc}") from exc
    if vec.shape[0] != space.dim:
        raise UsageError("vector dimension does not match the cone")
    return vec


def _resolve_cone(args):
    if args.cone_json:
        try:
            with open(args.cone_json, "r", encoding="utf-8") as fh:
                return cone_from_json(json.load(fh))
        # a JSON document of the wrong shape fails on a missing key, a non-dict or a null
        except (OSError, ValueError, KeyError, AttributeError, TypeError, SymconeError) as exc:
            raise UsageError(f"bad cone JSON: {exc}") from exc
    if args.cone is None:
        raise UsageError("either --cone or --cone-json is required")
    family, flag = {"orthant": (Orthant, "dim"), "lorentz": (Lorentz, "dim"),
                    "psd": (SymPSD, "d")}[args.cone]
    size = getattr(args, flag)
    if size is None:
        raise UsageError(f"--{flag} is required for the {args.cone} family")
    try:
        return family(size)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_map(args, space):
    if args.map is None:
        raise UsageError("--map is required")
    if args.map == "inversion":
        return Inversion(builtin_algebra(space))
    if args.map == "conjugate":
        return conjugated_inversion(space, args.seed + 100)
    if args.map == "identity":
        return identity_map()
    if args.map == "power3":
        if not isinstance(space.cone, Orthant):
            raise UsageError("--map power3 is only defined on the orthant")
        return ComponentwisePower(-3.0)
    # recovered, the last of the --map choices
    if not args.product:
        raise UsageError("--map recovered needs --product FILE")
    try:
        with open(args.product, "r", encoding="utf-8") as fh:
            tensor = ProductTensor.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, ValueError, SymconeError) as exc:
        raise UsageError(f"bad product tensor JSON: {exc}") from exc
    if tensor.n != space.dim:
        raise UsageError("product tensor dimension does not match the cone")
    return Recovered(tensor)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_report(report: VerificationReport, args) -> int:
    _emit(report.to_text() if args.fmt == "text" else report.to_canonical_json(), args.out)
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
    space = make_space(_resolve_cone(args))
    map_spec = _resolve_map(args, space)
    trials, seed, tol = args.trials, args.seed, args.tol
    start = time.perf_counter()

    sections = [
        ("geometry", verify_cone_geometry(space, min(trials, 100), seed)),
        ("reversing", verify_gauge_reversing(
            map_spec, space, space, trials, seed + 1, max(tol, 1e-9))),
        ("reconstruction", verify_reconstruction(map_spec, space, trials, seed + 2, tol)),
    ]
    j_map = Prerequisite(lambda: inversion_j(map_spec, space))
    sections += [
        ("extremal", check_state_gauge_identity(
            j_map, space, trials=min(trials, 40), seed=seed + 3, tol=max(tol, 1e-8))),
        ("atomicity", check_strong_atomicity(
            space, j_map, sample_interior(space, seed + 4, 1.0),
            trials=48, seed=seed + 5, tol=tol)),
        ("interval", check_order_interval_segment(
            space, sample_interior(space, seed + 6, 0.5),
            state_extremal_pairs(space, 1, seed + 7)[0][1],
            trials=min(trials, 100), seed=seed + 8, tol=max(tol, 1e-8))),
    ]
    if args.map == "recovered":
        sections += [
            ("input_product", check_qj_axioms(
                space, map_spec.product, trials=min(trials, 100), seed=seed + 9, tol=tol)),
            ("input_product_norms", check_jb_norm_conditions(
                space, map_spec.product, trials=min(trials, 100), seed=seed + 10,
                tol=max(tol, 1e-8))),
        ]

    report = merge_reports(f"suite:{space.cone.label}:{args.map}", seed,
                           sections, wall_time_s=time.perf_counter() - start)
    return _emit_report(report, args)


def cmd_reconstruct(args) -> int:
    space = make_space(_resolve_cone(args))
    tensor = extract_product(inversion_j(_resolve_map(args, space), space), space)
    payload = tensor.to_json()
    try:
        truth = builtin_algebra(space).product
        payload["max_deviation_from_builtin"] = cross_validate(tensor, truth)
    except SymconeError:
        pass
    _emit(canonical_json(payload), args.out)
    return 0


def cmd_gauge(args) -> int:
    space = make_space(_resolve_cone(args))
    x, y = _parse_point(args.x, space), _parse_point(args.y, space)
    if membership_slack(space.cone, x) <= 0.0 or membership_slack(space.cone, y) <= 0.0:
        raise UsageError("points must be strictly interior: not interior")
    _emit(canonical_json({"m": gauge_m(space, x, y), "M": gauge_M(space, x, y),
                          "dT": thompson_distance(space, x, y)}), args.out)
    return 0


def cmd_atomicity(args) -> int:
    space = make_space(_resolve_cone(args))
    if args.x:
        g = _parse_point(args.x, space)
        if membership_slack(space.cone, g) <= 0.0:
            raise UsageError("point must be strictly interior: not interior")
    else:
        g = sample_interior(space, args.seed, 1.0)
    report = check_strong_atomicity(space, Inversion(builtin_algebra(space)), g,
                                    trials=min(args.trials, 64), seed=args.seed, tol=args.tol)
    return _emit_report(report, args)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_controls(args)
        return args.run(args)
    except (UsageError, SymconeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
