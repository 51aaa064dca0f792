"""tools/bench_pairs.py: the summary it writes for each workload."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(rate, p50, failed=0):
    return {"attempted": 100, "failed": failed,
            "metrics": {"requests_per_s": rate, "latency_p50_ms": p50}}


def test_spread_of_one_run_is_that_run():
    assert bench_pairs.spread([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def test_summary_counts_wins_in_the_better_direction():
    pairs = [{"seed": 1, "first": "base", "base": run(100, 2.0), "change": run(120, 1.5)},
             {"seed": 2, "first": "change", "base": run(110, 2.0), "change": run(105, 2.0)},
             {"seed": 3, "first": "base", "base": run(90, 2.2), "change": run(130, 1.0, 1)},
             {"seed": 4, "first": "change", "base": {"error": "exit 1: boom"},
              "change": run(125, 1.2)}]
    better = {"requests_per_s": "higher", "latency_p50_ms": "lower"}
    summary = bench_pairs.summarize(pairs, better)
    rate = summary["metrics"]["requests_per_s"]
    assert rate["change_won"] == "2 of 3"  # the errored pair is no pair
    assert rate["won_share"] == 0.5 and not rate["meets_win_share"]  # but it was run, and not won
    assert rate["base"] == {"median": 100, "q1": 95.0, "q3": 105.0}
    assert rate["change"]["median"] == 122.5
    assert rate["median_change"] == 0.225
    assert summary["metrics"]["latency_p50_ms"]["change_won"] == "2 of 3"  # a tie wins nothing
    assert summary["failed"] == {"base": 0, "change": 1}
    assert summary["errored_runs"] == {"base": 1, "change": 0}


def test_resolved_needs_the_medians_apart_by_more_than_the_base_quartile_distance():
    pairs = [{"seed": i, "first": "base", "base": run(100 + i, 2.0 + i / 10),
              "change": run(101 + i, 1.5 + i / 10)} for i in range(10)]
    better = {"requests_per_s": "higher", "latency_p50_ms": "lower"}
    metrics = bench_pairs.summarize(pairs, better)["metrics"]
    p50 = metrics["latency_p50_ms"]  # base quartiles 2.225 and 2.675; medians 2.45 and 1.95
    assert p50["resolved"] and p50["won_share"] == 1.0 and p50["meets_win_share"]
    rate = metrics["requests_per_s"]  # base quartiles 102.25 and 106.75; medians 104.5, 105.5
    assert not rate["resolved"] and rate["meets_win_share"]  # every pair won, still unresolved


def tail_run(tail_ms, percentile):
    return {"attempted": 1000, "failed": 0, "requests": 1000,
            "latency_tail_percentile": percentile, "metrics": {"latency_tail_ms": tail_ms}}


def test_parse_run_keeps_the_requests_and_the_tail_percentile():
    stdout = ("workload=referee seed=41 trace=0 attempted=1610 failed=0 error_rate=0.0 "
              "requests=805 nproc=2 python=3.11.7 numpy=2.4.6 load_before=(0.5, 0.4, 0.3) "
              "load_after=(0.6, 0.5, 0.4) latency_tail_percentile=90.0\n"
              "  latency_tail_ms = 81.6 ms\n"
              '{"correct": true, "attempted": 1610, "failed": 0, '
              '"metrics": {"latency_tail_ms": {"value": 81.6, "unit": "ms"}}}\n')
    assert bench_pairs.parse_run(stdout) == {
        "attempted": 1610, "failed": 0, "requests": 805, "latency_tail_percentile": 90.0,
        "metrics": {"latency_tail_ms": 81.6}}


def test_parse_run_without_the_facts_gives_none():
    stdout = ("workload=referee seed=41 trace=0 attempted=8 failed=0\n"
              '{"attempted": 8, "failed": 0, "metrics": {}}\n')
    parsed = bench_pairs.parse_run(stdout)
    assert parsed["requests"] is None and parsed["latency_tail_percentile"] is None


def test_tail_at_different_percentiles_is_not_comparable():
    pairs = [{"seed": 41, "first": "base", "base": tail_run(157.7, 99.0),
              "change": tail_run(81.6, 90.0)},
             {"seed": 42, "first": "change", "base": tail_run(80.0, 90.0),
              "change": tail_run(79.0, 90.0)}]
    tail = bench_pairs.summarize(pairs, {"latency_tail_ms": "lower"})["metrics"]["latency_tail_ms"]
    assert tail["percentiles"] == {"base": [99.0, 90.0], "change": [90.0, 90.0]}
    assert tail["pairs_at_different_percentiles"] == [41]
    assert tail["comparable"] is False


def test_tail_at_one_percentile_is_comparable():
    pairs = [{"seed": 41 + i, "first": "base", "base": tail_run(80.0 + i, 90.0),
              "change": tail_run(79.0 + i, 90.0)} for i in range(3)]
    tail = bench_pairs.summarize(pairs, {"latency_tail_ms": "lower"})["metrics"]["latency_tail_ms"]
    assert tail["pairs_at_different_percentiles"] == [] and tail["comparable"] is True
    # an unknown percentile is not a shared one
    pairs[0]["base"]["latency_tail_percentile"] = None
    tail = bench_pairs.summarize(pairs, {"latency_tail_ms": "lower"})["metrics"]["latency_tail_ms"]
    assert tail["pairs_at_different_percentiles"] == [41] and tail["comparable"] is False


def test_pairs_argument_defaults_to_one_pair():
    assert bench_pairs.parse_pairs(["forecast=3", "referee"]) == {"forecast": 3, "referee": 1}


def test_parse_tier1_reads_the_summary_line():
    passing = "....................................... [100%]\n427 passed in 17.83s\n"
    assert bench_pairs.parse_tier1(passing) == {"passed": 427, "failed": 0}
    failing = ("..F.E [100%]\n=== short test summary info ===\nFAILED tests/test_x.py::test_a\n"
               "2 failed, 425 passed, 1 warning, 1 error in 18.01s\n")
    assert bench_pairs.parse_tier1(failing) == {"passed": 425, "failed": 3}  # errors count
    assert bench_pairs.parse_tier1("3 errors in 0.52s\n") == {"passed": 0, "failed": 3}


def test_parse_tier1_without_a_summary_gives_none():
    assert bench_pairs.parse_tier1("") is None
    assert bench_pairs.parse_tier1("ERROR: usage: pytest [options]\n") is None


def test_tier1_summary_keeps_medians_of_wall_time_and_counts():
    def tier1_run(wall_s, passed, failed=0):
        return {"failed": failed, "metrics": {"wall_s": wall_s, "passed": passed,
                                              "failed": failed}}
    pairs = [{"seed": 41 + i, "first": "base" if i % 2 == 0 else "change",
              "base": tier1_run(14.0 + i, 420), "change": tier1_run(13.0 + i, 427, int(i == 2))}
             for i in range(3)]
    metrics = bench_pairs.summarize(pairs, bench_pairs.TIER1_BETTER)["metrics"]
    assert metrics["wall_s"]["base"]["median"] == 15.0
    assert metrics["wall_s"]["change"]["median"] == 14.0
    assert metrics["wall_s"]["change_won"] == "3 of 3"
    assert metrics["passed"]["change"]["median"] == 427
    assert metrics["failed"]["change"]["median"] == 0 and metrics["failed"]["change_won"] == "0 of 3"
