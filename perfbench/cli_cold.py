"""cli-cold: the golden `krein` reports, each from a fresh interpreter.

Interpreter start and imports dominate here.  It is the only workload that
reaches `cli` and `matio`, and an in-process solver change should not move
it.  The cases and the comparison below are copies of tests/test_cli.py, so
that editing the tests cannot change the workload; the data and golden
files are read from tests/data.
"""

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# (golden name, argv, expected exit code)
CASES = [
    ("classify_neutral", ["classify", "--space", "m2.json", "--subspace", "span_pp.json"], 0),
    ("companion_neutral", ["companion", "--space", "m2.json", "--subspace", "span_pp.json"], 0),
    ("decompose_neutral", ["decompose", "--space", "m2.json", "--subspace", "span_pp.json"], 0),
    ("adjoint_b3", ["adjoint", "--space", "m2.json", "--b", "b3.json"], 0),
    ("project_selfadjoint_e1", ["project", "selfadjoint", "--space", "m2.json", "--subspace", "span_e1.json"], 0),
    ("project_selfadjoint_neutral", ["project", "selfadjoint", "--space", "m2.json", "--subspace", "span_pp.json"], 2),
    ("project_normal_neutral", ["project", "normal", "--space", "m2.json", "--subspace", "span_pm.json"], 0),
    ("project_ando_e1", ["project", "ando", "--space", "m2.json", "--subspace", "span_e1.json"], 0),
    ("inverse_b1", ["solve-ils", "--space", "m2.json", "--b", "b1.json"], 0),
    ("inverse_b2", ["solve-ils", "--space", "m2.json", "--b", "b2.json"], 2),
    ("ims_b2_eye", ["solve-ils", "--space", "m2.json", "--b", "b2.json", "--c", "eye2.json"], 2),
    ("ims_b1_eye", ["solve-ils", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json"], 0),
    ("imax_b1_eye", ["solve-imax", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json"], 2),
    ("imax_c2", ["solve-imax", "--space", "m2.json", "--b", "c_e2.json", "--c", "c_e2.json"], 0),
    ("minmax_b2", ["solve-minmax", "--space", "m2.json", "--b", "b2.json", "--c", "b2.json"], 0),
    ("pinv_b1", ["pinv", "--space", "m2.json", "--b", "b1.json"], 0),
    ("pinv_b3", ["pinv", "--space", "m2.json", "--b", "b3.json"], 2),
    ("geninv_b3", ["geninv", "--space", "m2.json", "--b", "b3.json"], 0),
    ("min_norm_b3", ["min-norm", "--space", "m2.json", "--b", "b3.json", "--c", "c_e2.json"], 0),
    ("verify_good", ["verify", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "b1.json"], 0),
    ("verify_bad", ["verify", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "x_bad.json"], 2),
    ("oracle_positive", ["oracle", "--space", "m2.json", "--b", "b1.json"], 0),
    ("oracle_indefinite", ["oracle", "--space", "m2.json", "--b", "eye2.json"], 2),
    ("oracle_min", ["oracle", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "b1.json"], 0),
]

IMPORT_SAMPLES = 5


def close(a, b):
    """Structural equality with float tolerance (LAPACK variation)."""
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            return False
        return math.isclose(float(a), float(b), rel_tol=1e-6, abs_tol=1e-9)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            close(a[key], b[key]) for key in a
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            close(x, y) for x, y in zip(a, b)
        )
    return a == b


def import_times(stderr):
    """Cumulative -X importtime milliseconds for kreinls, numpy and scipy.

    A package's time is the sum over its entries that are not nested in
    another entry of the same package; lines come children first, so the
    nesting is recovered by walking them in reverse with a stack.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative) / 1000.0))
    totals = {"kreinls": 0.0, "numpy": 0.0, "scipy": 0.0}
    stack = []  # (depth, package) of the enclosing entries
    for depth, name, ms in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".", 1)[0]
        if package in totals and all(p != package for _, p in stack):
            totals[package] += ms
        stack.append((depth, package))
    return totals


class CliWorkload:
    draws = 1

    def __init__(self, root, env):
        self.data = root / "tests" / "data"
        self.env = env

    def setup(self, k, seed):
        rng = np.random.default_rng(seed)
        self.order = [CASES[i] for i in rng.permutation(len(CASES))]
        self.golden = {
            name: json.loads((self.data / "golden" / (name + ".json")).read_text())
            for name, _, _ in CASES
        }
        self.run_case(*self.order[0])  # warm the file cache and the interpreter

    def run_case(self, name, argv, code):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kreinls.cli", *argv],
                cwd=self.data, env=self.env, capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, ["%s: timed out" % name]
        latency = time.perf_counter() - start
        return latency, self.verify(name, code, proc.returncode, proc.stdout, proc.stderr)

    def verify(self, name, code, returncode, stdout, stderr):
        if returncode != code:
            tail = stderr.strip().splitlines()[-1:] or [""]
            return ["%s: exit %d, expected %d %s" % (name, returncode, code, tail[0])]
        try:
            got = json.loads(stdout)
        except ValueError:
            return ["%s: report is not JSON" % name]
        if not close(got, self.golden[name]):
            return ["%s: report drifted from golden" % name]
        return []

    def cycle(self, index, tracer):
        """One case; the run goes through the seed's case order in turn."""
        return [self.run_case(*self.order[index % len(self.order)])]

    def layer_cycle(self, index, tracer):
        """All cases in-process through kreinls.cli.main, for the traced run."""
        from kreinls import cli, matio  # on sys.path once run.py has found ./src

        loaders = {
            "--space": matio.load_space,
            "--b": matio.load_matrix,
            "--c": matio.load_matrix,
            "--x": matio.load_matrix,
            "--subspace": matio.load_subspace_basis,
        }
        results = []
        cwd = os.getcwd()
        os.chdir(self.data)
        try:
            for name, argv, code in self.order:
                tracer.item = (index, name)
                files = [(loaders[flag], path) for flag, path in zip(argv, argv[1:]) if flag in loaders]
                start = time.perf_counter()
                try:
                    tracer.call("matio.load", lambda: [load(path) for load, path in files])
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        returncode = tracer.call("cli.main", cli.main, argv)
                    tracer.call("matio.dump", matio.canonical_dumps, json.loads(out.getvalue()))
                except Exception as exc:  # the library raised: a failed case
                    results.append((time.perf_counter() - start, ["%s: raised %r" % (name, exc)]))
                    continue
                latency = time.perf_counter() - start
                results.append((latency, self.verify(name, code, returncode, out.getvalue(), "")))
        finally:
            os.chdir(cwd)
        return results

    def startup_probe(self):
        """cli.* start-up costs, each the median of fresh interpreters."""

        def run(args):
            return subprocess.run(
                [sys.executable, *args], cwd=self.data, env=self.env,
                capture_output=True, text=True, timeout=120,
            )

        bare = []
        for _ in range(IMPORT_SAMPLES):
            start = time.perf_counter()
            run(["-c", "pass"])
            bare.append((time.perf_counter() - start) * 1000.0)
        parts = [import_times(run(["-X", "importtime", "-c", "import kreinls"]).stderr)
                 for _ in range(IMPORT_SAMPLES)]
        return {
            "cli.interpreter_ms": statistics.median(bare),
            "cli.import_ms": statistics.median(p["kreinls"] for p in parts),
            "cli.import_numpy_ms": statistics.median(p["numpy"] for p in parts),
            "cli.import_scipy_ms": statistics.median(p["scipy"] for p in parts),
        }
