"""kreinls benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload verdict-small --seed 1 --seconds 30 --trace 0

Workloads (see solver.py and cli_cold.py for why each exists):
    verdict-small  in-process verdicts at n <= 4, with the oracle
    solve-wide     in-process verdicts at n = 128, without the oracle
    cli-cold       the golden `krein` cases, one fresh interpreter each

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a separate traced run.  A line
before it records the versions, the machine and the sample counts.  Every
output is checked; an item that raises or gives a wrong answer counts as
failed.  Run from the repository root; kreinls is imported from ./src.
"""

import os
import sys
import time

# One BLAS thread, set before numpy loads; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import cli_cold  # noqa: E402
import layers  # noqa: E402
import solver  # noqa: E402
from tracing import Untraced  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verdict-small", "solve-wide", "cli-cold")
SETUP_SAMPLES = 3  # fresh processes timed for setup_s, spread over the run
TAIL_BEYOND = 10  # samples the tail percentile leaves above it


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def make_workload(name):
    if name == "verdict-small":
        return solver.verdict_small()
    if name == "solve-wide":
        return solver.solve_wide()
    return cli_cold.CliWorkload(ROOT, child_env())


def setup_sample(args):
    """Wall time of one fresh process from spawn to the end of its setup."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("setup process failed (exit %s)" % proc.returncode)
    return elapsed


def tail(latencies):
    """The highest percentile that leaves TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    i = n - TAIL_BEYOND - 1
    return ordered[i], 100.0 * i / (n - 1)


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(args, workload, setup_own):
    setups = [setup_sample(args)]  # one before the loop, the rest after it
    loop_start = time.perf_counter()
    results = []
    cycles = 0
    while cycles == 0 or time.perf_counter() - loop_start < args.seconds:
        results.extend(workload.cycle(cycles, Untraced()))
        cycles += 1
    loop_s = time.perf_counter() - loop_start
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    setups += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

    latencies = [lat for lat, _ in results]
    failures = [f for _, fs in results for f in fs]
    failed = sum(1 for _, fs in results if fs)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (len(results) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (tail_s * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "cycles": cycles,
        "items": len(results),
        "latency_tail_percentile": round(tail_pct, 2),
        "failed_ratio": failed / len(results),
        "setup_samples_s": setups,
        "setup_in_process_s": setup_own,
        "loop_s": loop_s,
    }
    return results, failures, metrics, info


def report(args, results, failures, metrics, info):
    for failure in failures[:20]:
        print("FAILED " + failure, file=sys.stderr)
    failed = sum(1 for _, fs in results if fs)
    info.update(versions(), workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    t0 = time.perf_counter()
    args = parse(argv)
    if not (SRC / "kreinls" / "__init__.py").is_file():
        print("error: kreinls sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kreinls

    workload = make_workload(args.workload)
    workload.setup(kreinls, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setup_own = time.perf_counter() - t0
    if args.trace:
        results, failures, metrics, info = layers.traced_run(args, workload, kreinls, make_workload)
    else:
        results, failures, metrics, info = end_to_end(args, workload, setup_own)
    report(args, results, failures, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
