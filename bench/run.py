"""Time-to-verdict benchmark for kplab.

    python3 bench/run.py --workload scatter --seed 1 --seconds 12 --trace 0

Runs one workload closed loop in this process for at least `--seconds`:
after set-up (imports, fixed inputs and one warm-up operation) it starts
one operation after the previous one ends until the time is used, then
checks every output.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
`--workload all` runs each workload in its own child process in turn.

The benchmark imports `kplab` from the `src/` directory next to this one
and exits with code 2 when it is missing.  Spans of a traced run and every
result line are written under `bench/out/`.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS/OpenMP thread, at or below the core count of any machine, so the
# thread count is the same everywhere and op_cpu_p50_s stays comparable to
# op_p50_s.  Set before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("scatter", "picard", "bilinear", "illposed")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args):
    import numpy as np

    from kplab import solver
    from kplab.errors import KplabError

    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    def rng(index):
        return np.random.default_rng([args.seed, index])

    wl = WORKLOADS[args.workload]()
    tracer = Tracer()
    problems, iterates, rhs_probe = [], [], []

    def inspect(out):
        """Check one output after the clock stopped, keeping nothing large."""
        problems.extend(wl.check(out))
        iterates.append(out.get("picard_iterates", 0))
        state = wl.rhs_state(out)
        for _ in range(5 if args.trace and state is not None else 0):
            t0 = time.perf_counter()
            solver.nonlinearity(state)
            rhs_probe.append(time.perf_counter() - t0)

    with tracer.patched(layers.TARGETS if args.trace else []):
        inspect(wl.op(rng(0)))
        setup_s = time.perf_counter() - _START
        iterates.clear()
        rhs_probe.clear()

        walls, cpus, failed = [], [], 0
        t_begin = time.perf_counter()
        while not walls or time.perf_counter() - t_begin < args.seconds:
            tracer.op = len(walls)
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = wl.op(rng(len(walls) + 1))
            except KplabError as exc:
                print(f"operation {len(walls)} failed: {exc}", file=sys.stderr)
                failed += 1
                out = None
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
            tracer.op = None
            if out is not None:
                inspect(out)
                del out
        problems += wl.finish()
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        figures = layers.metrics(tracer, range(len(walls)), iterates, rhs_probe)
        metrics = {name: _metric(value, unit) for name, unit, value in figures}
    else:
        metrics = {
            "op_p50_s": _metric(statistics.median(walls), "s"),
            "op_cpu_p50_s": _metric(statistics.median(cpus), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {"correct": not problems, "attempted": len(walls), "failed": failed,
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(json.dumps(result) + "\n")
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"op_wall_s": walls, "spans": tracer.dump()}) + "\n")
    return result


def run_all(args):
    """Each workload in a child process, so that set-up and peak memory are
    its own; the combined line prefixes every metric with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
            print(f"{name:9s} {key:36s} {val['value']:.6g} {val['unit']}")
    return combined


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "kplab" / "__init__.py").is_file():
        print(f"bench: no kplab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
