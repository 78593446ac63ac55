"""Command line entry points with deterministic report emission.

Subcommands:
  suite        run the full verification battery for a cone and map
  reconstruct  recover the product tensor and compare against ground truth
  gauge        print the two gauges and the Thompson distance of a pair
  atomicity    run the atomic-decomposition checks at a point

Exit codes: 0 all properties passed, 1 at least one property failed, 2 for
usage or configuration errors.  Reports are rendered canonically (fixed
field order, 17 significant digits, no timestamps) so identical runs are
byte-identical.

A suite section that raises, or reads the inversion j whose build raised
(extremal and atomicity do, interval does not), reads one property,
section_available, at Infinity with that exception: the rule of
report.measure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

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
from .report import Prerequisite, VerificationReport, canonical_json, measure, merge_reports


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Validated invocation: cone, map, sampling controls, output routing."""

    command: str
    cone: object
    map_kind: str | None
    map_spec: object | None
    trials: int
    seed: int
    tol: float
    fmt: str
    out: str | None
    x: np.ndarray | None
    y: np.ndarray | None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symcone",
        description="Verification toolkit for cone geometry and recovered Jordan products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_map: bool):
        p.add_argument("--cone", choices=["orthant", "lorentz", "psd"],
                       help="cone family (or use --cone-json)")
        p.add_argument("--cone-json", help="path to a cone description in JSON")
        p.add_argument("--dim", type=int, help="ambient dimension for orthant/lorentz")
        p.add_argument("--d", type=int, help="matrix order for the psd family")
        if needs_map:
            p.add_argument("--map", choices=["inversion", "conjugate", "identity",
                                             "power3", "recovered"],
                           help="gauge map under test")
            p.add_argument("--product", help="product tensor JSON (for --map recovered)")
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--tol", type=float, default=1e-7)
        p.add_argument("--format", dest="fmt", choices=["json", "text"], default="json")
        p.add_argument("--out", help="write the report/tensor here instead of stdout")

    p_suite = sub.add_parser("suite", help="full verification battery")
    common(p_suite, needs_map=True)

    p_rec = sub.add_parser("reconstruct", help="recover the product tensor")
    common(p_rec, needs_map=True)

    p_gauge = sub.add_parser("gauge", help="gauges and Thompson distance of a pair")
    common(p_gauge, needs_map=False)
    p_gauge.add_argument("--x", required=True, help="first point, JSON array")
    p_gauge.add_argument("--y", required=True, help="second point, JSON array")

    p_atom = sub.add_parser("atomicity", help="atomic decomposition checks")
    common(p_atom, needs_map=False)
    p_atom.add_argument("--x", help="interior point, JSON array (default: seeded sample)")

    return parser


def _parse_vector(text: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"could not parse vector JSON: {exc}") from exc
    if not isinstance(data, list):
        raise UsageError("vector argument must be a JSON array")
    try:
        return as_vector(data)
    except ValueError as exc:
        raise UsageError(f"bad vector: {exc}") from exc


def _resolve_cone(args):
    if getattr(args, "cone_json", None):
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
    kind = getattr(args, "map", None)
    if kind is None:
        raise UsageError("--map is required")
    if kind == "inversion":
        return Inversion(builtin_algebra(space)), kind
    if kind == "conjugate":
        return conjugated_inversion(space, args.seed + 100), kind
    if kind == "identity":
        return identity_map(), kind
    if kind == "power3":
        if not isinstance(space.cone, Orthant):
            raise UsageError("--map power3 is only defined on the orthant")
        return ComponentwisePower(-3.0), kind
    if kind == "recovered":
        if not getattr(args, "product", None):
            raise UsageError("--map recovered needs --product FILE")
        try:
            with open(args.product, "r", encoding="utf-8") as fh:
                tensor = ProductTensor.from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError, SymconeError) as exc:
            raise UsageError(f"bad product tensor JSON: {exc}") from exc
        if tensor.n != space.dim:
            raise UsageError("product tensor dimension does not match the cone")
        return Recovered(tensor), kind
    raise UsageError(f"unsupported map {kind!r}")


def _config_from_args(args, space, needs_map: bool) -> RunConfig:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if not 0.0 < args.tol < math.inf:
        raise UsageError("--tol must be finite and > 0")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    map_spec = kind = None
    if needs_map:
        map_spec, kind = _resolve_map(args, space)
    x = _parse_vector(args.x) if getattr(args, "x", None) else None
    y = _parse_vector(args.y) if getattr(args, "y", None) else None
    for vec in (x, y):
        if vec is not None and vec.shape[0] != space.dim:
            raise UsageError("vector dimension does not match the cone")
    return RunConfig(args.command, space.cone, kind, map_spec, args.trials,
                     args.seed, args.tol, args.fmt, args.out, x, y)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_report(report: VerificationReport, cfg: RunConfig) -> int:
    if cfg.fmt == "text":
        _emit(report.to_text(), cfg.out)
    else:
        _emit(report.to_canonical_json(), cfg.out)
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
    space = make_space(_resolve_cone(args))
    cfg = _config_from_args(args, space, needs_map=True)
    start = time.perf_counter()

    def section(label, build) -> tuple[str, VerificationReport]:
        """build()'s report, or one property, section_available, at Infinity with
        what build or a prerequisite it reads raised."""
        report = Prerequisite(build)
        if report.error is None:
            return label, report.value
        return label, VerificationReport.from_properties(
            label, cfg.seed, [measure("section_available", 1, cfg.tol, lambda _: report())])

    sections = [
        ("geometry", verify_cone_geometry(space, min(cfg.trials, 100), cfg.seed)),
        ("reversing", verify_gauge_reversing(
            cfg.map_spec, space, space, cfg.trials, cfg.seed + 1, max(cfg.tol, 1e-9))),
        ("reconstruction", verify_reconstruction(
            cfg.map_spec, space, cfg.trials, cfg.seed + 2, cfg.tol)),
    ]
    j_map = Prerequisite(lambda: inversion_j(cfg.map_spec, space))
    sections += [
        section("extremal", lambda: check_state_gauge_identity(
            j_map(), space, trials=min(cfg.trials, 40), seed=cfg.seed + 3,
            tol=max(cfg.tol, 1e-8))),
        section("atomicity", lambda: check_strong_atomicity(
            space, j_map(), sample_interior(space, cfg.seed + 4, 1.0),
            trials=48, seed=cfg.seed + 5, tol=cfg.tol)),
        section("interval", lambda: check_order_interval_segment(
            space, sample_interior(space, cfg.seed + 6, 0.5),
            state_extremal_pairs(space, 1, cfg.seed + 7)[0][1],
            trials=min(cfg.trials, 100), seed=cfg.seed + 8,
            tol=max(cfg.tol, 1e-8))),
    ]

    if cfg.map_kind == "recovered":
        product = cfg.map_spec.product
        sections.append(("input_product", check_qj_axioms(
            space, product, trials=min(cfg.trials, 100), seed=cfg.seed + 9, tol=cfg.tol)))
        sections.append(("input_product_norms", check_jb_norm_conditions(
            space, product, trials=min(cfg.trials, 100), seed=cfg.seed + 10,
            tol=max(cfg.tol, 1e-8))))

    report = merge_reports(f"suite:{cfg.cone.label}:{cfg.map_kind}", cfg.seed,
                           sections, wall_time_s=time.perf_counter() - start)
    return _emit_report(report, cfg)


def cmd_reconstruct(args) -> int:
    space = make_space(_resolve_cone(args))
    cfg = _config_from_args(args, space, needs_map=True)
    j_map = inversion_j(cfg.map_spec, space)
    tensor = extract_product(j_map, space)
    payload = tensor.to_json()
    try:
        truth = builtin_algebra(space).product
        payload["max_deviation_from_builtin"] = cross_validate(tensor, truth)
    except SymconeError:
        pass
    _emit(canonical_json(payload), cfg.out)
    return 0


def cmd_gauge(args) -> int:
    space = make_space(_resolve_cone(args))
    cfg = _config_from_args(args, space, needs_map=False)
    if membership_slack(cfg.cone, cfg.x) <= 0.0 or membership_slack(cfg.cone, cfg.y) <= 0.0:
        raise UsageError("points must be strictly interior: not interior")
    payload = {
        "m": gauge_m(space, cfg.x, cfg.y),
        "M": gauge_M(space, cfg.x, cfg.y),
        "dT": thompson_distance(space, cfg.x, cfg.y),
    }
    _emit(canonical_json(payload), cfg.out)
    return 0


def cmd_atomicity(args) -> int:
    space = make_space(_resolve_cone(args))
    cfg = _config_from_args(args, space, needs_map=False)
    if cfg.x is not None:
        if membership_slack(cfg.cone, cfg.x) <= 0.0:
            raise UsageError("point must be strictly interior: not interior")
        g = cfg.x
    else:
        g = sample_interior(space, cfg.seed, 1.0)
    j_map = Inversion(builtin_algebra(space))
    report = check_strong_atomicity(space, j_map, g, trials=min(cfg.trials, 64),
                                    seed=cfg.seed, tol=cfg.tol)
    return _emit_report(report, cfg)


_COMMANDS = {
    "suite": cmd_suite,
    "reconstruct": cmd_reconstruct,
    "gauge": cmd_gauge,
    "atomicity": cmd_atomicity,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymconeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
