"""Metric names, units and the arithmetic that turns runs into metrics.

The names here are the ones BENCHMARK.json lists; the benchmark's tests keep
the two in step.
"""

from __future__ import annotations

import math
import statistics

from tracing import END, ERROR, NAME, REQUEST, START, ATTRS, self_times

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

# latency_tail_ms is the highest of these percentiles with at least ten
# samples beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)

LAYERS = ("combinatorics", "worth", "predictor", "replicator", "oracle")
FUNCTIONS = (
    "combinatorics.build_bell_table", "combinatorics.enumerate_partitions",
    "worth.characteristic_from_coalitions", "worth.reduce_to_symmetric",
    "predictor.predict", "predictor.hyperplane_system", "predictor.evaluate_planes",
    "predictor.distances",
    "replicator.initial_frequencies", "replicator.uniform_frequencies",
    "replicator.integrate", "replicator.rest_point_check",
    "oracle.brute_force_multiplicities", "oracle.brute_force_average",
    "oracle.optimal_structure",
)
PREDICT_MS = (2, 3, 6, 12, 24, 48, 96)
FIRST_CALL_MS = (8, 9, 10)
CLI_COMMANDS = ("predict", "average", "stats", "planes", "simulate", "enumerate", "verify")

# (name, unit, better)
PER_LAYER = (
    *((f"{fn}.{stat}", unit, better) for fn in FUNCTIONS
      for stat, unit, better in (("calls", "count", "higher"), ("busy_ms", "ms", "lower"))),
    *((f"{layer}.{stat}", unit, "lower") for layer in LAYERS
      for stat, unit in (("self_ms", "ms"), ("exceptions", "count"))),
    ("combinatorics.enumerate_partitions.partitions_per_s", "1/s", "higher"),
    ("worth.coalitions_per_s", "1/s", "higher"),
    *((f"predictor.predict.ms_per_call.m{m}", "ms", "lower") for m in PREDICT_MS),
    ("predictor.tie_count", "count", "lower"),
    ("replicator.integrate.samples_per_s", "1/s", "higher"),
    ("replicator.integrate.sim_time_per_s", "s/s", "higher"),
    ("replicator.clamp_events", "count", "lower"),
    ("replicator.max_simplex_drift", "1", "lower"),
    ("oracle.brute_force_multiplicities.partitions_per_s", "1/s", "higher"),
    ("oracle.optimal_structure.partitions_per_s", "1/s", "higher"),
    *((f"oracle.brute_force_average.first_call_ms.m{m}", "ms", "lower") for m in FIRST_CALL_MS),
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.import_numpy_ms", "ms", "lower"),
    *((f"cli.compute_ms.{cmd}", "ms", "lower") for cmd in CLI_COMMANDS),
    ("cli.calls", "count", "higher"),
    ("cli.busy_ms", "ms", "lower"),
    ("cli.exit_code_mismatches", "count", "lower"),
    ("bench.self_ms", "ms", "lower"),
    ("error_rate", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.spans", "count", "higher"),
)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples above it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return 100.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# A class's steady latency has this share of the class's repeats, and at
# least STEADY_MIN_ABOVE of them, above it.
STEADY_SHARE_ABOVE = 0.1
STEADY_MIN_ABOVE = 3


def steady_latency(values) -> float:
    """The highest of a class's latencies with enough repeats above it.

    On a shared VM the same work runs at one contended speed most of the
    time, with bursts up to 1.7x faster whose share drifts from minute to
    minute. A class's median or mean sits between the two speeds and moves
    with how many bursts a run caught; its upper decile stays with the
    contended speed. A class that runs only about ten times a run (every
    cli-cold class) would have its upper decile on its slowest repeat, so
    at least three repeats stay above it.
    """
    ordered = sorted(values)
    above = max(STEADY_MIN_ABOVE, math.ceil(STEADY_SHARE_ABOVE * len(ordered)))
    return ordered[max(0, len(ordered) - 1 - above)]


def steady_latencies(latencies, classes) -> list[float]:
    """Each request's latency read as its class's steady latency; the mix is kept."""
    by_class: dict[str, list[float]] = {}
    for latency, name in zip(latencies, classes):
        by_class.setdefault(name, []).append(latency)
    steady = {name: steady_latency(values) for name, values in by_class.items()}
    return [steady[name] for name in classes]


def requests_per_s(latencies, classes) -> float:
    """Completed requests over their summed steady service time."""
    return len(latencies) / math.fsum(steady_latencies(latencies, classes))


def end_to_end(latencies, classes, setups, peak_rss_kb: int) -> tuple[dict, dict]:
    """Metric values plus the facts needed to read them.

    Every run holds whole blocks, so every class is in the same share on
    every seed and the median and tail fall on the same classes.
    """
    steady = steady_latencies(latencies, classes)
    p_tail = tail_percentile(len(steady))
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(steady) / math.fsum(steady),
        "latency_p50_ms": statistics.median(steady) * 1000.0,
        "latency_tail_ms": percentile(steady, p_tail) * 1000.0,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    facts = {"requests": len(latencies), "classes": len(set(classes)),
             "raw_requests_per_s": len(latencies) / math.fsum(latencies),
             "raw_latency_p50_ms": statistics.median(latencies) * 1000.0,
             "latency_tail_percentile": p_tail,
             "setup_samples": len(setups)}
    return values, facts


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_values(spans, counts: dict) -> dict:
    """Per-layer metrics of one traced in-process run.

    calls, busy_ms, self_ms and exceptions cover every span, set-up included;
    rates divide the loop's counts by the loop's busy time.
    """
    own = self_times(spans)
    values: dict[str, float] = {}
    for fn in FUNCTIONS:
        values[f"{fn}.calls"] = 0
        values[f"{fn}.busy_ms"] = 0.0
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = 0.0
        values[f"{layer}.exceptions"] = 0
    values["bench.self_ms"] = 0.0
    loop_busy: dict[str, float] = {}
    per_m: dict[int, list[float]] = {}
    first_call: dict[int, float] = {}
    for span, self_s in zip(spans, own):
        name, busy = span[NAME], span[END] - span[START]
        layer = name.split(".", 1)[0]
        if layer == "request":
            values["bench.self_ms"] += self_s * 1000.0
            continue
        values[f"{name}.calls"] += 1
        values[f"{name}.busy_ms"] += busy * 1000.0
        values[f"{layer}.self_ms"] += self_s * 1000.0
        values[f"{layer}.exceptions"] += span[ERROR]
        m = span[ATTRS].get("m")
        if name == "oracle.brute_force_average" and m in FIRST_CALL_MS:
            first_call.setdefault(m, busy * 1000.0)
        if span[REQUEST] == "setup":
            continue
        loop_busy[name] = loop_busy.get(name, 0.0) + busy
        if name == "predictor.predict":
            per_m.setdefault(m, []).append(busy)
    for m in PREDICT_MS:
        samples = per_m.get(m, [])
        values[f"predictor.predict.ms_per_call.m{m}"] = (
            math.fsum(samples) / len(samples) * 1000.0 if samples else 0.0)
    for m in FIRST_CALL_MS:
        values[f"oracle.brute_force_average.first_call_ms.m{m}"] = first_call.get(m, 0.0)
    values["combinatorics.enumerate_partitions.partitions_per_s"] = _rate(
        counts["partitions.enumerate"], loop_busy.get("combinatorics.enumerate_partitions", 0.0))
    values["worth.coalitions_per_s"] = _rate(
        counts["worth.coalitions"],
        loop_busy.get("worth.characteristic_from_coalitions", 0.0)
        + loop_busy.get("worth.reduce_to_symmetric", 0.0))
    values["predictor.tie_count"] = counts["predictor.tie_count"]
    integrate_s = loop_busy.get("replicator.integrate", 0.0)
    values["replicator.integrate.samples_per_s"] = _rate(
        counts["replicator.integrate.samples"], integrate_s)
    values["replicator.integrate.sim_time_per_s"] = _rate(
        counts["replicator.integrate.sim_time"], integrate_s)
    values["replicator.clamp_events"] = counts["replicator.clamp_events"]
    values["replicator.max_simplex_drift"] = counts["replicator.max_simplex_drift"]
    for kind, fn in (("multiplicities", "oracle.brute_force_multiplicities"),
                     ("optimal", "oracle.optimal_structure")):
        values[f"{fn}.partitions_per_s"] = _rate(counts[f"partitions.{kind}"],
                                                 loop_busy.get(fn, 0.0))
    values["trace.spans"] = len(spans)
    return values


def report(values: dict, catalogue) -> dict:
    """{name: {"value", "unit"}} for every name in the catalogue, 0 where a layer did no work."""
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, *_ in catalogue}
