"""Benchmark a change against a base revision in alternating pairs; write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr 14 --base HEAD --pairs forecast=3 dynamics=1 \\
        referee=1 cli-cold=1 --seconds 25 --first-seed 41

Run from anywhere inside a git checkout. The base revision's tree is unpacked
with `git archive` into a temporary directory, removed when done. Pair i of a
workload runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with S = first seed + i, once at the base and once in the working tree; the side
that goes first alternates from pair to pair, so slow drift of the machine falls
on both sides alike. The file at the root of the working tree holds every run's
end-to-end metrics and failed count, per-side medians and quartiles, and the
machine facts that move these numbers: nproc, the Python version and
PYTHONDONTWRITEBYTECODE (when it is 1, each cold CLI process compiles the
package source again). Each run also keeps its request count and the percentile
that its latency_tail_ms reports, as run.py's summary line states them: the
benchmark takes a lower percentile from fewer requests, so two runs' tails are
comparable only at the same percentile.

The pseudo-workload tier1 (`--pairs tier1=3`) runs the Tier-1 verify command

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

in the same alternating pairs instead, and keeps each run's wall time and the
passed and failed counts of pytest's summary line; errors count as failed.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "change")
WIN_SHARE = 0.9  # a gain needs the change to win 9 of 10 pairs run, ties counting for neither
TIER1_COMMAND = "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"
TIER1_BETTER = {"wall_s": "lower", "passed": "higher", "failed": "lower"}


def git(cwd: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: parse_run of its stdout, or the error that ended it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """The last line of run.py's stdout, and two facts of its first, the summary line."""
    lines = stdout.splitlines()
    last = json.loads(lines[-1])
    summary = next((line for line in lines if line.startswith("workload=")), "")
    facts = {key: json.loads(value) for key, value  # None where run.py does not print it
             in re.findall(r"\b(requests|latency_tail_percentile)=(\S+)", summary)}
    return {"attempted": last["attempted"], "failed": last["failed"],
            "requests": facts.get("requests"),
            "latency_tail_percentile": facts.get("latency_tail_percentile"),
            "metrics": {name: entry["value"] for name, entry in last["metrics"].items()}}


def run_tier1(root: Path) -> dict:
    """One Tier-1 run in root: its wall time and parse_tier1 of its output."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": "src" + (os.pathsep + path if path else "")}
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    counts = parse_tier1(proc.stdout)
    if counts is None:
        return {"error": f"exit {proc.returncode}: {(proc.stdout + proc.stderr).strip()[-500:]}"}
    return {"failed": counts["failed"], "metrics": {"wall_s": wall_s, **counts}}


def parse_tier1(stdout: str) -> dict | None:
    """Passed and failed (errors included) from pytest's summary, its last line; None without one.

    `pytest -q` ends with a line such as `2 failed, 425 passed, 1 error in 17.83s`.
    """
    lines = stdout.strip().splitlines()
    counts = {word: int(n) for n, word in re.findall(r"\b(\d+) (passed|failed|error)s?\b",
                                                     lines[-1] if lines else "")}
    if not counts:
        return None
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def spread(values: list[float]) -> dict:
    """Median and quartiles; with one value, all three are that value."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's spread, the relative change of the medians, and the
    pairs the change won (better as BENCHMARK.json says; ties count for neither).

    The claim rule takes two more: `resolved`, whether the medians differ by more
    than the base runs' quartile distance, and `won_share`, the wins over every pair
    run (an errored pair is not won), with `meets_win_share` against WIN_SHARE.
    latency_tail_ms also lists each side's tail percentiles and the seeds of the
    pairs whose sides differ in it; `comparable` holds when every run shares one.
    """
    runs = {side: [pair[side] for pair in pairs if "metrics" in pair[side]] for side in SIDES}
    names = next((run["metrics"] for side in SIDES for run in runs[side]), {})
    whole = [pair for pair in pairs if all("metrics" in pair[side] for side in SIDES)]
    summary = {}
    for name in names:
        per_side = {side: spread([run["metrics"][name] for run in runs[side]])
                    for side in SIDES if runs[side]}
        if len(per_side) == 2:
            base, change = per_side["base"]["median"], per_side["change"]["median"]
            per_side["median_change"] = (change - base) / base if base else None
            sign = -1 if better.get(name) == "lower" else 1
            won = sum(sign * (pair["change"]["metrics"][name] - pair["base"]["metrics"][name]) > 0
                      for pair in whole)
            per_side["change_won"] = f"{won} of {len(whole)}"
            per_side["won_share"] = won / len(pairs)
            per_side["meets_win_share"] = won >= WIN_SHARE * len(pairs)
            base_spread = per_side["base"]["q3"] - per_side["base"]["q1"]
            per_side["resolved"] = abs(change - base) > base_spread
        summary[name] = per_side
    if "latency_tail_ms" in summary:
        tail = summary["latency_tail_ms"]
        tail["percentiles"] = {side: [run.get("latency_tail_percentile") for run in runs[side]]
                               for side in SIDES}
        tail["pairs_at_different_percentiles"] = [pair["seed"] for pair in whole
                               if pair["base"].get("latency_tail_percentile")
                               != pair["change"].get("latency_tail_percentile")]
        seen = {p for side in SIDES for p in tail["percentiles"][side]}
        tail["comparable"] = len(seen) == 1 and None not in seen
    failed = {side: sum(run["failed"] for run in runs[side]) for side in SIDES}
    errors = {side: sum("error" in pair[side] for pair in pairs) for side in SIDES}
    return {"metrics": summary, "failed": failed, "errored_runs": errors}


def parse_pairs(items: list[str]) -> dict[str, int]:
    pairs = {}
    for item in items:
        workload, _, count = item.partition("=")
        pairs[workload] = int(count or 1)
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD", help="revision to compare against")
    parser.add_argument("--pairs", nargs="+", default=["forecast=3", "dynamics=1",
                                                       "referee=1", "cli-cold=1"],
                        help="WORKLOAD=PAIRS, one per workload; tier1=PAIRS times the Tier-1 suite")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=41)
    args = parser.parse_args(argv)

    change = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    base_commit = git(change, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    catalogue = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {entry["name"]: entry["better"] for entry in catalogue["end_to_end"]}
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "tier1_command": TIER1_COMMAND,
        "seconds": args.seconds,
        "base": {"revision": args.base, "commit": base_commit},
        "change": {"head": git(change, "rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git(change, "status", "--porcelain"))},
        "machine": {"nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count(),
                    "python": platform.python_version(),
                    "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                    "platform": platform.platform()},
        "workloads": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    base = scratch / "base"
    base.mkdir()
    try:
        archive = subprocess.run(["git", "archive", base_commit], cwd=change, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        roots = {"base": base, "change": change}
        for workload, count in parse_pairs(args.pairs).items():
            pairs = []
            for i in range(count):
                seed = args.first_seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = (run_tier1(roots[side]) if workload == "tier1" else
                                  run_once(roots[side], workload, seed, args.seconds))
                    print(json.dumps({"workload": workload, "seed": seed, "side": side,
                                      **pair[side]}), file=sys.stderr)
                pairs.append(pair)
            rules = TIER1_BETTER if workload == "tier1" else better
            record["workloads"][workload] = {"pairs": pairs, **summarize(pairs, rules)}
    finally:
        shutil.rmtree(scratch)
    out = change / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
