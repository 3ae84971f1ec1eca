"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks that each run
is correct and prints exactly the metrics BENCHMARK.json names, each with
its unit, and that two traced runs, on different seeds, report identical
factorization counts.
Takes a few minutes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = ("factorizations", ".svd", "factorizations_per_trial")


def run(workload, trace, seed=1, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result["metrics"]


def expect(metrics, specs, label):
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want, "%s: metrics differ: %s" % (label, sorted(set(got.items()) ^ set(want.items())))
    for name, m in metrics.items():
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (label, name, value)


def counts(metrics):
    return {name: m["value"] for name, m in metrics.items() if name.endswith(COUNT_SUFFIXES)}


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        expect(run(workload, 0), SPEC["end_to_end"], workload)
        first = run(workload, 1)
        expect(first, SPEC["per_layer"], workload + " traced")
        second = run(workload, 1, seed=2)
        assert counts(first) == counts(second), (workload, counts(first), counts(second))
        print("ok %s" % workload, flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
