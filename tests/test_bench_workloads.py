"""The benchmark's workloads (bench/workloads.py) run on the current API.

Every operation of the three workloads runs once, at one seed, with its
check: none may give a wrong output, and only a pinned operation may raise.
A change to symcone that breaks what the benchmark calls fails here, not
only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("name", ["recover", "certify", "geometry"])
def test_every_operation_runs_and_checks(name, workloads, tmp_path):
    ops = workloads.WORKLOADS[name](4040, str(tmp_path))
    assert ops
    for op in ops:
        try:
            out = op.run()
        except Exception as exc:
            assert op.pinned, f"{op.name} raised {type(exc).__name__}: {exc}"
        else:
            assert op.check(out) is None, op.name
