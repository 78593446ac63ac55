"""Verification reports and their deterministic canonical JSON form.

Reports are plain value objects.  The canonical rendering uses a fixed field
order and 17-significant-digit decimals so that identical runs produce
byte-identical output; wall time and the exceptions behind infinite
residuals are carried on the objects but excluded from the canonical form.

Every suite decides what a property reads by one rule, `measure`: the
property's residual comes from a callable, and if that callable raises, or a
prerequisite it reads raised when it was built, the property reads Infinity
and carries describe_error of the exception.  A prerequisite, a value that
several properties read, is built once as a `Prerequisite`; a failed build
is raised again in every property that reads it.  A checker reading a product
or a map takes the value or a Prerequisite of it (`as_prerequisite`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class PropertyResult:
    """Outcome of one checked property: worst residual over all trials.

    `error` names the exception ("ExceptionType: message") that made the
    property uncomputable, in which case the residual is infinite.
    """

    name: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    error: str | None = None

    @classmethod
    def from_residual(cls, name: str, trials: int, max_residual: float,
                      tolerance: float, error: str | None = None) -> "PropertyResult":
        max_residual = float(max_residual)
        ok = bool(math.isfinite(max_residual) and max_residual <= tolerance)
        return cls(name, int(trials), max_residual, float(tolerance), ok, error)


def describe_error(exc: BaseException) -> str:
    """One-line "ExceptionType: message" summary of an exception."""
    return f"{type(exc).__name__}: {exc}"


class Prerequisite:
    """A value that properties read, built once by build().

    Calling it returns the value, or raises again the exception build raised,
    with the traceback of the build alone: each raise starts from it, so the
    frames of one reader do not pile up under the next.
    """

    def __init__(self, build):
        self.value = self.error = self._traceback = None
        try:
            self.value = build()
        except Exception as exc:
            self.error, self._traceback = exc, exc.__traceback__

    def __call__(self):
        if self.error is not None:
            raise self.error.with_traceback(self._traceback)
        return self.value


def as_prerequisite(value) -> Prerequisite:
    """value itself if it is a Prerequisite, else a Prerequisite built to value."""
    return value if isinstance(value, Prerequisite) else Prerequisite(lambda: value)


def measure(name: str, trials: int, tolerance: float, residual) -> PropertyResult:
    """The property name over trials trials, whose worst residual is residual(trials).

    If residual raises, or a prerequisite it reads raised when it was built,
    the property reads Infinity and carries describe_error of the exception.
    """
    try:
        value, error = residual(trials), None
    except Exception as exc:
        value, error = math.inf, describe_error(exc)
    return PropertyResult.from_residual(name, trials, value, tolerance, error)


@dataclass
class VerificationReport:
    suite: str
    seed: int
    properties: list[PropertyResult] = field(default_factory=list)
    passed: bool = True
    wall_time_s: float = 0.0

    @classmethod
    def from_properties(cls, suite: str, seed: int,
                        properties: list[PropertyResult],
                        wall_time_s: float = 0.0) -> "VerificationReport":
        ok = all(p.passed for p in properties)
        return cls(suite, seed, list(properties), ok, wall_time_s)

    def failing(self) -> list[PropertyResult]:
        return [p for p in self.properties if not p.passed]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "properties": [
                {
                    "name": p.name,
                    "trials": p.trials,
                    "max_residual": p.max_residual,
                    "tolerance": p.tolerance,
                    "pass": p.passed,
                }
                for p in self.properties
            ],
            "pass": self.passed,
        }

    def to_canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}  (seed {self.seed})"]
        for p in self.properties:
            tag = "PASS" if p.passed else "FAIL"
            line = (f"  [{tag}] {p.name}: max_residual={_render_float(p.max_residual)} "
                    f"tolerance={_render_float(p.tolerance)} trials={p.trials}")
            if p.error:
                line += f" error={p.error}"
            lines.append(line)
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def merge_reports(suite: str, seed: int,
                  sections: list[tuple[str, VerificationReport]],
                  wall_time_s: float = 0.0) -> VerificationReport:
    """Flatten named sub-reports into one report with prefixed property names."""
    props = []
    for prefix, rep in sections:
        for p in rep.properties:
            props.append(PropertyResult(f"{prefix}/{p.name}", p.trials,
                                        p.max_residual, p.tolerance, p.passed, p.error))
    return VerificationReport.from_properties(suite, seed, props, wall_time_s)


def _render_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Render JSON with insertion-ordered keys and .17g float formatting."""
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_render_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            _write_json(str(k), out)
            out.append(":")
            _write_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), out)
    elif isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, np.floating):
        out.append(_render_float(float(obj)))
    elif isinstance(obj, np.integer):
        out.append(str(int(obj)))
    else:
        raise TypeError(f"cannot render {type(obj)!r} canonically")
