"""Span tracing of symcone's public functions, installed from outside.

`Tracer.install` wraps each function named in `FUNCTIONS` and rebinds the
wrapper everywhere the original object is bound: in its own module, in every
symcone module that imported it by name, and in the `symcone` package
namespace.  It also wraps the `apply`/`apply_inverse` methods of the map
classes and `QuadraticRep.__call__`.  Each call records one span (group,
parent span, start, end) in flat in-memory arrays; nothing is aggregated or
written while the workload runs.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

import numpy as np

# module -> {function name: span group}
FUNCTIONS = {
    "cones": {
        "membership_slack": "cones.membership_slack",
        "order_unit_norm": "cones.order_unit_norm",
        "gauge_M": "cones.gauge",
        "gauge_m": "cones.gauge",
        "thompson_distance": "cones.gauge",
        "gauge_M_bisect": "cones.bisect",
        "gauge_m_bisect": "cones.bisect",
        "order_unit_norm_bisect": "cones.bisect",
        "verify_cone_geometry": "cones.verify_cone_geometry",
    },
    "linalg": {
        "sym_eig": "linalg.sym_eig",
        "solve_linear": "linalg.solve_linear",
        "mat_inverse": "linalg.mat_inverse",
    },
    "jordan": {
        "tensor_inverse": "jordan.tensor_inverse",
        "check_qj_axioms": "jordan.checkers",
        "check_jb_norm_conditions": "jordan.checkers",
        "builtin_algebra": "jordan.builtin_algebra",
    },
    "gauge_maps": {
        "verify_gauge_reversing": "gauge_maps.verify_gauge_reversing",
    },
    "reconstruction": {
        "quad_rep_interior": "reconstruction.quad_rep_interior",
        "quad_rep_full": "reconstruction.quad_rep_full",
        "assemble_derivative": "reconstruction.assemble_derivative",
        "hua_directional_derivative": "reconstruction.hua_directional_derivative",
        "symmetry_at": "reconstruction.symmetry_at",
        "extract_product": "reconstruction.extract_product",
        "verify_reconstruction": "reconstruction.verify_reconstruction",
    },
    "extremal": {
        "check_state_gauge_identity": "extremal.checks",
        "check_strong_atomicity": "extremal.checks",
        "check_order_interval_segment": "extremal.checks",
    },
    "report": {
        "canonical_json": "report.canonical_json",
    },
    "cli": {
        "main": "cli.main",
    },
}

MAP_CLASSES = ("Inversion", "Recovered", "LinearConjugate", "Compose", "ComponentwisePower")
LOOKUP = "reconstruction.quadrep_cache.lookup"


class Tracer:
    """Records spans of wrapped symcone calls; `uninstall` restores the originals."""

    def __init__(self):
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self.group = array("i")
        self.parent = array("i")
        self.outermost = array("b")  # no open span of the same group encloses it
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open: list[int] = []    # per group: spans of it currently open
        self._restore: list[tuple[object, str, object]] = []
        self.bindings: dict[str, list[str]] = {}  # group -> "module.name" rebound

    def _group_id(self, name: str) -> int:
        if name not in self._group_ids:
            self._group_ids[name] = len(self.groups)
            self.groups.append(name)
            self._open.append(0)
        return self._group_ids[name]

    def wrap(self, group: str, fn):
        gid = self._group_id(group)
        groups, parents, outer, starts, ends = (self.group, self.parent, self.outermost,
                                                self.start, self.end)
        stack, open_ = self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(groups)
            groups.append(gid)
            parents.append(stack[-1] if stack else -1)
            outer.append(open_[gid] == 0)
            ends.append(0.0)
            stack.append(idx)
            open_[gid] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_[gid] -= 1
                stack.pop()

        return traced

    def install(self) -> None:
        homes = {m: importlib.import_module(f"symcone.{m}") for m in FUNCTIONS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "symcone" or name.startswith("symcone.")) and m is not None]
        for mod_name, names in FUNCTIONS.items():
            home = homes[mod_name]
            for fn_name, group in names.items():
                original = getattr(home, fn_name)
                wrapper = self.wrap(group, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapper)
                            self.bindings.setdefault(group, []).append(
                                f"{mod.__name__}.{attr}")
        for cls_name in MAP_CLASSES:
            cls = getattr(homes["gauge_maps"], cls_name)
            for meth in ("apply", "apply_inverse"):
                self._rebind(cls, meth, self.wrap(f"gauge_maps.{meth}", vars(cls)[meth]))
        cls = homes["reconstruction"].QuadraticRep
        self._rebind(cls, "__call__", self.wrap(LOOKUP, vars(cls)["__call__"]))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ----------------------------------------------------------------------
    # aggregation
    # ----------------------------------------------------------------------

    def stats(self, t_lo: float, t_hi: float) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per group for spans starting in [t_lo, t_hi).

        total_s adds only the outermost span of each nest of one group, so a
        recursive call is not counted twice.  For the quad-rep cache group it
        adds lookups and hits: a hit is a lookup that made no quad_rep_full call.
        """
        group = np.array(self.group, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        outer = np.array(self.outermost, dtype=bool)
        start = np.array(self.start)
        dur = np.array(self.end) - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(group))
        own = dur - child
        sel = (start >= t_lo) & (start < t_hi)
        ng = len(self.groups)
        calls = np.bincount(group[sel], minlength=ng)
        self_s = np.bincount(group[sel], weights=own[sel], minlength=ng)
        total_s = np.bincount(group[sel & outer], weights=dur[sel & outer], minlength=ng)
        out = {g: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
               for i, g in enumerate(self.groups)}
        lookup = self._group_ids.get(LOOKUP)
        full = self._group_ids.get("reconstruction.quad_rep_full")
        if lookup is not None and full is not None:
            in_full = sel & (group == full) & has_parent
            missed = np.unique(parent[in_full])
            missed = missed[group[missed] == lookup]
            lookups = int(calls[lookup])
            out["reconstruction.quadrep_cache"] = {"lookups": lookups,
                                                   "hits": lookups - len(missed)}
        return out

    def write(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tgroup\tparent\tstart_s\tend_s\n")
            for i in range(len(self.group)):
                fh.write(f"{i}\t{self.groups[self.group[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
        return len(self.group)
