"""One workload in one fresh process; started by run.py, never run by hand.

Prints "ready" once set-up is done (run.py times process start to that line),
then, unless --setup-only, runs as many whole passes over the workload's
operations as fit in --seconds, and prints one JSON line with the pass times,
per-operation times, failures, peak RSS and, under --trace 1, the per-layer
statistics of every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

import numpy as np


PROBE_EVERY_S = 0.05
_PROBE_A = np.linspace(0.5, 1.5, 36).reshape(6, 6)
_PROBE_X = np.linspace(-1.0, 1.0, 6)


def probe_kernel() -> None:
    """Fixed work of the kinds symcone spends its time on: small numpy calls
    and Python float arithmetic; about 0.4 ms."""
    x = _PROBE_X
    for _ in range(40):
        x = np.abs(_PROBE_A @ x) - 0.5 * x
        acc = 0.0
        for k in range(40):
            acc += k * 0.5 - acc * 1e-3


class HostProbe:
    """Times `probe_kernel` every PROBE_EVERY_S seconds from a SIGALRM handler.

    On a shared host the machine's speed can drift by a fifth within seconds
    and by a third within minutes (see README.md), for the operations and
    the kernel alike, so a pass divided by the kernel's mean time during
    that pass no longer moves with the host.  Sampling by timer reaches into
    long operations, which a kernel run between operations would not.
    """

    def __init__(self):
        self.times: list[float] = []     # when each sample started
        self.spent: list[float] = []     # how long it took
        self.total = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe_kernel()
        dt = time.perf_counter() - t0
        self.times.append(t0)
        self.spent.append(dt)
        self.total += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self, t_lo: float, t_hi: float) -> float:
        spent = [dt for t, dt in zip(self.times, self.spent) if t_lo <= t < t_hi]
        return sum(spent) / len(spent)


def run_passes(ops, seconds: float, probe: HostProbe) -> dict:
    """Whole passes over the operations, in a closed loop, for about `seconds`.

    Another pass starts only if one as long as the longest so far still ends
    within `seconds`.  Pass times add the operations' times, without the
    checks and without the probe samples taken during the operations.
    """
    op_times: dict[str, list[float]] = {op.name: [] for op in ops}
    failures: dict[str, dict] = {}
    wrong: dict[str, str] = {}
    pass_times: list[float] = []
    windows: list[tuple[float, float]] = []
    attempted = failed = 0
    t_first = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        busy = 0.0
        for op in ops:
            probed = probe.total
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # the operation failed; count it and go on
                dt = time.perf_counter() - t0 - (probe.total - probed)
                failed += 1
                entry = failures.setdefault(op.name, {"count": 0, "pinned": op.pinned})
                entry["count"] += 1
                entry["error"] = f"{type(exc).__name__}: {exc}"
            else:
                dt = time.perf_counter() - t0 - (probe.total - probed)
                verdict = op.check(out)
                if verdict is not None:
                    wrong[op.name] = verdict
            attempted += 1
            busy += dt
            op_times[op.name].append(dt)
        pass_times.append(busy)
        windows.append((t_pass, time.perf_counter()))
        longest = max(hi - lo for lo, hi in windows)
        if time.perf_counter() - t_first + longest > seconds:
            break
    return {"pass_times": pass_times, "windows": windows, "op_times": op_times,
            "attempted": attempted, "failed": failed, "failures": failures, "wrong": wrong}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    import symcone
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([os.path.abspath(symcone.__file__), src]) != src:
        print(f"symcone imported from {symcone.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    t_setup = time.perf_counter()
    import workloads
    ops = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with HostProbe() as probe:
        t_first = time.perf_counter()
        result = run_passes(ops, args.seconds, probe)
    windows = result.pop("windows")
    result["probe_means"] = [probe.mean(lo, hi) for lo, hi in windows]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["setup_layers"] = tracer.stats(t_setup, t_first)
        result["pass_layers"] = [tracer.stats(lo, hi) for lo, hi in windows]
        path = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.tsv.gz")
        result["spans"] = {"path": path, "count": tracer.write(path)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
