"""The traced run: per-layer metrics from spans around each public call.

The layers are the kreinls modules.  The named workload runs whole cycles
untraced for half of --seconds, then the same cycles again with spans and
factorization counting; the ratio of the two is trace.overhead_ratio.  A
layer the workload does not reach is filled in by a short traced probe of
the workload that does (the verdict-small cycle for the solver modules and
the oracle, the in-process golden replay for cli and matio), so every
traced run reports every per-layer metric.  Factorization counts are means
over whole pool passes; the item shapes are fixed and only their entries
come from the seed, so the counts repeat exactly from run to run.
"""

import statistics
import time

from tracing import Tracer, Untraced

LAYERS = ("core", "projections", "ils", "pinv", "minmax", "oracle", "cli", "matio")
SPACE_REPEATS = 3


def ms(spans):
    return statistics.median(s.seconds for s in spans) * 1000.0


def per_call(kind=None):
    def reduce(spans):
        total = sum(s.factorizations if kind is None else s.counts.get(kind, 0) for s in spans)
        return total / len(spans)

    return reduce


def outcome(feasible):
    return lambda spans: ms([s for s in spans if s.feasible is feasible])


def trials_per_s(spans):
    return sum(s.trials for s in spans) / sum(s.seconds for s in spans)


def factorizations_per_trial(spans):
    return sum(s.factorizations for s in spans) / sum(s.trials for s in spans)


def mean_trials(spans):
    return sum(s.trials for s in spans) / len(spans)


# (metric, unit, span name, reducer)
SPAN_METRICS = (
    ("core.make_space.ms", "ms", "core.make_space", ms),
    ("core.make_space.factorizations", "count", "core.make_space", per_call()),
    ("core.range_of.ms", "ms", "core.range_of", ms),
    ("core.orthogonal_companion.ms", "ms", "core.orthogonal_companion", ms),
    ("projections.normal_projection.ms", "ms", "projections.normal_projection", ms),
    ("projections.normal_projection.factorizations", "count", "projections.normal_projection", per_call()),
    ("ils.solve_ims.feasible_ms", "ms", "ils.solve_ims", outcome(True)),
    ("ils.solve_ims.infeasible_ms", "ms", "ils.solve_ims", outcome(False)),
    ("ils.solve_ims.factorizations", "count", "ils.solve_ims", per_call()),
    ("ils.solve_ims.svd", "count", "ils.solve_ims", per_call("svd")),
    ("pinv.krein_moore_penrose.ms", "ms", "pinv.krein_moore_penrose", ms),
    ("pinv.krein_moore_penrose.factorizations", "count", "pinv.krein_moore_penrose", per_call()),
    ("pinv.canonical_pair.ms", "ms", "pinv.canonical_pair", ms),
    ("pinv.canonical_pair.factorizations", "count", "pinv.canonical_pair", per_call()),
    ("pinv.solve_min_ims_norm.ms", "ms", "pinv.solve_min_ims_norm", ms),
    ("pinv.solve_min_ims_norm.factorizations", "count", "pinv.solve_min_ims_norm", per_call()),
    ("minmax.solve_immso.ms", "ms", "minmax.solve_immso", ms),
    ("minmax.solve_immso.factorizations", "count", "minmax.solve_immso", per_call()),
    ("oracle.certify_min.accept_ms", "ms", "oracle.certify_min.accept", ms),
    ("oracle.trials_per_s", "1/s", "oracle.certify_min.accept", trials_per_s),
    ("oracle.certify_min.factorizations_per_trial", "count", "oracle.certify_min.accept",
     factorizations_per_trial),
    ("oracle.certify_min.reject_ms", "ms", "oracle.certify_min.reject", ms),
    ("oracle.reject_trials", "count", "oracle.certify_min.reject", mean_trials),
    ("cli.main_ms", "ms", "cli.main", ms),
    ("matio.load_ms", "ms", "matio.load", ms),
    ("matio.dump_ms", "ms", "matio.dump", ms),
)


def cycles(run, tracer, count):
    results = []
    for index in range(count):
        results.extend(run(index, tracer))
    return results


def traced_cycles(workload, run, count):
    """`count` cycles with spans; the tracer's wall is the library time."""
    tracer = Tracer()
    with tracer.counting():
        if hasattr(workload, "make_spaces"):
            for _ in range(SPACE_REPEATS):
                workload.make_spaces(tracer)
        results = cycles(run, tracer, count)
    tracer.wall = sum(lat for lat, _ in results) + sum(s.seconds for s in tracer.named("core.make_space"))
    return tracer, results


def traced_run(args, workload, kreinls, make_workload):
    run = workload.layer_cycle
    step = workload.draws
    start = time.perf_counter()
    untraced = []
    count = 0
    while count == 0 or count % step or time.perf_counter() - start < args.seconds / 2.0:
        untraced.extend(run(count, Untraced()))
        count += 1
    tracer, traced = traced_cycles(workload, run, count)
    results = untraced + traced
    overhead = sum(lat for lat, _ in traced) / sum(lat for lat, _ in untraced)
    tracers = [tracer]
    sources = [args.workload]
    startup = workload.startup_probe() if args.workload == "cli-cold" else None

    if not tracer.named("oracle.certify_min.accept"):
        probe = make_workload("verdict-small")
        probe.setup(kreinls, args.seed)
        probe_tracer, probe_results = traced_cycles(probe, probe.layer_cycle, probe.draws)
        tracers.append(probe_tracer)
        results += probe_results
        sources.append("verdict-small probe")
    if startup is None:
        probe = make_workload("cli-cold")
        probe.setup(kreinls, args.seed)
        probe_tracer, probe_results = traced_cycles(probe, probe.layer_cycle, 1)
        tracers.append(probe_tracer)
        results += probe_results
        startup = probe.startup_probe()
        sources.append("cli-cold probe")

    metrics = {}
    for name, unit, span, reduce in SPAN_METRICS:
        spans = next(t.named(span) for t in tracers if t.named(span))
        metrics[name] = (reduce(spans), unit)
    for name, value in startup.items():
        metrics[name] = (value, "ms")
    for layer in LAYERS:
        t = next(t for t in tracers if t.layer_seconds(layer) > 0.0)
        metrics[layer + ".share"] = (t.layer_seconds(layer) / t.wall, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    failures = [f for _, fs in results for f in fs]
    info = {
        "cycles": count,
        "items": len(results),
        "passes": sources,
        "traced_wall_s": tracer.wall,
        "spans": sum(len(t.spans) for t in tracers),
    }
    return results, failures, metrics, info
