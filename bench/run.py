"""symcone benchmark: one workload per call, each in fresh processes.

    python3 bench/run.py --workload {recover,certify,geometry} --seed N \
        --seconds S --trace {0,1}

Run from any directory of a checkout that holds `src/symcone`; the package is
imported from that source tree, never from an installed copy.  BLAS is held
at one thread.  The command times SETUP_SAMPLES set-ups, each in its own
process from start to the first timed operation, then one more process runs
as many whole passes over the workload as fit in S seconds.  It prints one
line per metric, failure and operation, and last one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones, from a run whose symcone functions are wrapped
in spans (see spans.py).  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 5      # set-up-only processes; the measuring process adds one more
RUN_MARGIN_S = 130.0   # kill a worker still running this long after --seconds have passed
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in ONE_THREAD})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # bytecode is cached after the first set-up, which the median then drops
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run worker.py; returns (seconds from start to its "ready" line, later stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--out-dir", OUT_DIR]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    timer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s, rest


def layer_metrics(result: dict) -> tuple[dict[str, float], bool]:
    """Per-layer metrics of one pass: counts of the first pass, the median of times.

    jordan.builtin_algebra.total_s is taken over the set-up instead, where
    the builtin algebras are built.  The flag says whether every pass made
    the same calls.
    """
    per_pass = []
    for stats in result["pass_layers"]:
        flat = {}
        for group, values in stats.items():
            for key, value in values.items():
                flat[f"{group}.{key}"] = value
        per_pass.append(flat)
    names = sorted(set().union(*per_pass))
    out, steady = {}, True
    for name in names:
        values = [p.get(name, 0) for p in per_pass]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            steady = steady and all(v == values[0] for v in values)
    setup = result["setup_layers"].get("jordan.builtin_algebra", {"total_s": 0.0})
    out["jordan.builtin_algebra.total_s"] = setup["total_s"]
    return out, steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("recover", "certify", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + args.seconds + RUN_MARGIN_S

    if not os.path.isfile(os.path.join(ROOT, "src", "symcone", "__init__.py")):
        print(f"error: no symcone source tree under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [spawn([*common, "--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES)]
        ready_s, rest = spawn([*common, "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], deadline)
        result = json.loads(rest.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(ready_s)

    passes = result["pass_times"]
    measured = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(passes),
        "pass_norm": statistics.median(p / k for p, k in zip(passes, result["probe_means"])),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"  setup_s      {measured['setup_s']:.4f} s   median of {len(setups)} set-ups")
    print(f"  pass_s       {measured['pass_s']:.4f} s   median of {len(passes)} passes")
    print(f"  pass_norm    {measured['pass_norm']:.1f} probe   median of {len(passes)} passes")
    print(f"  peak_rss_mb  {measured['peak_rss_mb']:.1f} MB")
    print(f"  passes       {' '.join(f'{p:.3f}' for p in passes)} s")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for name, f in result["failures"].items():
        tag = f"pinned: {f['pinned']}" if f["pinned"] else "NOT PINNED"
        print(f"  failed x{f['count']}: {name}: {f['error']}  [{tag}]")
    for name, verdict in result["wrong"].items():
        print(f"  WRONG: {name}: {verdict}")
    for name, times in result["op_times"].items():
        print(f"  op {statistics.median(times):9.4f} s  {name}")

    if args.trace:
        layers, steady = layer_metrics(result)
        print(f"  spans {result['spans']['count']} written to {result['spans']['path']}")
        print(f"  per-pass calls identical across passes: {steady}")
        for name in sorted(layers):
            print(f"  layer {name} = {layers[name]}")
        wanted = spec["per_layer"]
        source = layers
    else:
        wanted = spec["end_to_end"]
        source = measured
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not result["wrong"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
