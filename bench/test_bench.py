"""Tests of the benchmark's own parts: references, tracer and command.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference as ref  # noqa: E402
import spans  # noqa: E402
import symcone as sc  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

REF_CONES = ["orthant3", "orthant6", "lorentz5", "psd3", "psd4", "sum"]


@pytest.mark.parametrize("cone", REF_CONES)
def test_reference_table_matches_builtin_algebra(cone):
    builtin = sc.builtin_algebra(workloads.space(cone)).product
    spec = workloads.CONES[cone][1]
    assert np.abs(ref.product_table(spec) - builtin.table).max() < 1e-14
    assert np.array_equal(ref.unit(spec), builtin.unit)
    assert workloads.table_check(cone)(builtin) is None


@pytest.mark.parametrize("cone", REF_CONES)
def test_table_check_rejects_a_perturbed_tensor(cone):
    builtin = sc.builtin_algebra(workloads.space(cone)).product
    table = builtin.table.copy()
    table[0, -1, -1] += 1e-6
    table[-1, 0, -1] += 1e-6
    perturbed = sc.ProductTensor(builtin.n, builtin.unit, table)
    assert workloads.table_check(cone)(perturbed) is not None


def test_svec_matches_symcone():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    a = a + a.T
    assert np.array_equal(ref.svec(a), sc.svec(a))
    assert np.allclose(ref.smat(ref.svec(a)), a, rtol=0, atol=1e-15)


@pytest.mark.parametrize("cone", ["orthant6", "lorentz5", "lorentz20", "psd3", "psd10", "sum"])
def test_pencil_gauges_match_closed_forms(cone):
    sp = workloads.space(cone)
    spec = workloads.CONES[cone][1]
    for seed in range(3):
        x = sc.sample_interior(sp, 2 * seed, 1.0)
        y = sc.sample_interior(sp, 2 * seed + 1, 1.0)
        pairs = [(ref.gauge_M(spec, x, y), sc.gauge_M(sp, x, y)),
                 (ref.gauge_m(spec, x, y), sc.gauge_m(sp, x, y)),
                 (ref.thompson_distance(spec, x, y), sc.thompson_distance(sp, x, y)),
                 (ref.order_unit_norm(spec, x - y), sc.order_unit_norm(sp, x - y))]
        for expect, got in pairs:
            assert ref.close(got, expect, workloads.GAUGE_RTOL)
        assert not ref.close(sc.gauge_M(sp, x, y) * (1 + 1e-6), pairs[0][0],
                             workloads.GAUGE_RTOL)


def test_pencil_gauge_worked_example():
    # x = (2, 1), y = (1, 3) on the orthant: M = 2, m = 1/3
    spec = ("orthant", 2)
    assert ref.gauge_M(spec, [2, 1], [1, 3]) == pytest.approx(2.0, abs=1e-15)
    assert ref.gauge_m(spec, [2, 1], [1, 3]) == pytest.approx(1 / 3, abs=1e-15)
    assert ref.thompson_distance(spec, [2, 1], [1, 3]) == pytest.approx(math.log(3), abs=1e-15)


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------

@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_wrappers_are_bound_in_every_importing_module(tracer):
    bound = tracer.bindings
    assert "symcone.gauge_maps.tensor_inverse" in bound["jordan.tensor_inverse"]
    assert {"symcone.cones.sym_eig", "symcone.extremal.sym_eig"} <= set(bound["linalg.sym_eig"])
    assert {f"symcone.{m}.membership_slack"
            for m in ("reconstruction", "gauge_maps", "jordan", "extremal", "cli")} \
        <= set(bound["cones.membership_slack"])
    for module, names in spans.FUNCTIONS.items():
        for name, group in names.items():
            assert f"symcone.{module}.{name}" in bound[group]
            if hasattr(sc, name):
                assert f"symcone.{name}" in bound[group]
                assert getattr(sc, name) is getattr(sys.modules[f"symcone.{module}"], name)


def test_uninstall_restores_the_originals():
    before = (sc.sym_eig, sc.cones.sym_eig, sc.Inversion.apply,
              sc.QuadraticRep.__call__, sc.cli.main)
    t = spans.Tracer()
    t.install()
    assert sc.cones.sym_eig is not before[1]
    t.uninstall()
    assert (sc.sym_eig, sc.cones.sym_eig, sc.Inversion.apply,
            sc.QuadraticRep.__call__, sc.cli.main) == before


def _run_once(ops):
    for op in ops:
        try:
            op.run()
        except workloads.FailedReport:
            assert op.pinned


def test_every_wrapped_name_counts_calls(tracer, tmp_path):
    t0 = time.perf_counter()
    _run_once(workloads.geometry(1, str(tmp_path)))
    small = workloads.space("lorentz5")
    sc.extract_product(sc.inversion_j(workloads.conjugated(small, np.random.default_rng(0)),
                                      small), small)
    sc.cli.main(["suite", "--cone", "orthant", "--dim", "2", "--map", "inversion",
                 "--trials", "2", "--out", str(tmp_path / "r.json")])
    stats = tracer.stats(t0, time.perf_counter())
    groups = {g for names in spans.FUNCTIONS.values() for g in names.values()}
    groups |= {"gauge_maps.apply", "gauge_maps.apply_inverse", spans.LOOKUP}
    for group in groups:
        assert stats[group]["calls"] > 0, group
    assert stats["reconstruction.quadrep_cache"]["lookups"] > 0


def test_calls_repeat_exactly():
    counts = []
    for _ in range(2):
        t = spans.Tracer()
        t.install()
        try:
            t0 = time.perf_counter()
            sp = workloads.space("psd3")
            sc.extract_product(sc.inversion_j(workloads.inversion(sp), sp), sp)
            stats = t.stats(t0, time.perf_counter())
        finally:
            t.uninstall()
        counts.append({g: s.get("calls", s.get("lookups")) for g, s in stats.items()})
    assert counts[0] == counts[1]


def test_self_time_excludes_children_and_total_counts_a_nest_once():
    t = spans.Tracer()

    def leaf():
        time.sleep(0.02)

    wrapped_leaf = t.wrap("leaf", leaf)

    def node(depth):
        time.sleep(0.01)
        if depth:
            wrapped_node(depth - 1)
        wrapped_leaf()

    wrapped_node = t.wrap("node", node)
    t0 = time.perf_counter()
    wrapped_node(1)
    stats = t.stats(t0, time.perf_counter())
    assert stats["node"]["calls"] == 2 and stats["leaf"]["calls"] == 2
    assert 0.02 <= stats["node"]["self_s"] < 0.035
    assert 0.04 <= stats["leaf"]["self_s"] < 0.055
    assert 0.06 <= stats["node"]["total_s"] < 0.08   # outer node only


# --------------------------------------------------------------------------
# passes and the host probe
# --------------------------------------------------------------------------

def _busy(seconds):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        sum(range(100))


def test_host_probe_samples_inside_a_long_operation():
    with worker.HostProbe() as probe:
        t0 = time.perf_counter()
        _busy(0.5)
        t1 = time.perf_counter()
    assert len(probe.times) >= 5
    assert probe.total == pytest.approx(sum(probe.spent))
    assert 0 < probe.mean(t0, t1) < worker.PROBE_EVERY_S


def test_passes_count_failures_and_leave_out_checks_and_probe_samples():
    def fail():
        raise sc.ExtractionError("unit law")

    ops = [workloads.Op("busy", lambda: _busy(0.3), lambda out: time.sleep(0.2)),
           workloads.Op("broken", fail, pinned="known fault")]
    with worker.HostProbe() as probe:
        result = worker.run_passes(ops, 0.0, probe)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["failures"]["broken"] == {"count": 1, "pinned": "known fault",
                                            "error": "ExtractionError: unit law"}
    assert not result["wrong"]
    assert 0.28 < result["pass_times"][0] < 0.3


# --------------------------------------------------------------------------
# command
# --------------------------------------------------------------------------

def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "geometry",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
