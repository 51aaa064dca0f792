"""Benchmark of coalition-forecast: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload forecast --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Workloads: forecast, dynamics and referee run in a fresh worker process
each; cli-cold starts one CLI process per request. With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run, which spends half of --seconds untraced
and half traced on the same seed to measure the tracing overhead. A result
file with machine and run facts, and for traced runs the spans, go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import select
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import cli_cold
import loop
import metrics
from tracing import NullTracer, Tracer

WORKLOADS = ("forecast", "dynamics", "referee", "cli-cold")
SETUP_SAMPLES = 7
READY_TIMEOUT_S = 60
RESULT_GRACE_S = 90
FAILURES_SHOWN = 5


def run_worker(root: Path, workload: str, seed: int, seconds: float, trace: bool,
               setup_only: bool = False, spans: Path | None = None) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and, unless setup_only, its results."""
    argv = [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if setup_only:
        argv.append("--setup-only")
    if spans is not None:
        argv += ["--spans", str(spans)]
    start = perf_counter()
    with subprocess.Popen(argv, cwd=root, env=cli_cold.child_env(root),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            if not select.select([proc.stdout], [], [], READY_TIMEOUT_S)[0]:
                raise RuntimeError(f"{workload} worker not ready after {READY_TIMEOUT_S} s")
            line = proc.stdout.readline()
            ready = perf_counter() - start
            if line.strip() != "READY":
                raise RuntimeError(f"{workload} worker failed during set-up (exit {proc.wait()})")
            out, _ = proc.communicate(timeout=seconds + RESULT_GRACE_S)
            if proc.returncode != 0:
                raise RuntimeError(f"{workload} worker exited {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return ready, None if setup_only else json.loads(out.splitlines()[-1])


def peak_rss_kb() -> int:
    """Largest resident set of any child waited for so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def untraced(root: Path, workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, list]:
    if workload == "cli-cold":
        spec = cli_cold.CliCold(root, work)
        setups = spec.setup_times(SETUP_SAMPLES)
        result = loop.run_loop(spec, workload, seed, seconds, NullTracer())
    else:
        setups = [run_worker(root, workload, seed, 0, False, setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        ready, result = run_worker(root, workload, seed, seconds, False)
        setups.append(ready)
    values, facts = metrics.end_to_end(result["latencies"], result["classes"], setups,
                                       peak_rss_kb())
    facts["setup_s_samples"] = setups
    facts["blocks"] = result["blocks"]
    return {"values": values, "facts": facts, "catalogue": metrics.END_TO_END}, [result]


def traced(root: Path, workload: str, seed: int, seconds: float, work: Path,
           spans_path: Path) -> tuple[dict, list]:
    half = seconds / 2.0
    if workload == "cli-cold":
        spec = cli_cold.CliCold(root, work)
        base = loop.run_loop(spec, workload, seed, half, NullTracer())
        tr = Tracer()
        result = loop.run_loop(spec, workload, seed, half, tr)
        probe_times = cli_cold.probes(root, tr)
        values = cli_cold.layer_values(tr.spans, probe_times)
        values["cli.exit_code_mismatches"] = (base["counts"]["cli.exit_code_mismatches"]
                                              + result["counts"]["cli.exit_code_mismatches"])
        tr.write(spans_path)
    else:
        _, base = run_worker(root, workload, seed, half, False)
        _, result = run_worker(root, workload, seed, half, True, spans=spans_path)
        values = result["layers"]
        values.update(cli_cold.probe_values(cli_cold.probes(root, NullTracer())))
    values["trace.overhead_ratio"] = (
        metrics.requests_per_s(result["latencies"], result["classes"])
        / metrics.requests_per_s(base["latencies"], base["classes"]))
    attempted = len(base["latencies"]) + len(result["latencies"])
    values["error_rate"] = (len(base["failures"]) + len(result["failures"])) / attempted
    facts = {"requests": len(result["latencies"]), "untraced_requests": len(base["latencies"])}
    return {"values": values, "facts": facts, "catalogue": metrics.PER_LAYER}, [base, result]


def machine_facts() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine(), "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "coalition_forecast" / "__init__.py").is_file():
        print(json.dumps({"error": f"no package source at {root / 'src' / 'coalition_forecast'}"}),
              file=sys.stderr)
        return 2
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    facts = {**machine_facts(), "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "load_before": os.getloadavg()}
    try:
        with tempfile.TemporaryDirectory(dir=out_dir) as work:
            if args.trace:
                outcome, results = traced(root, args.workload, args.seed, args.seconds,
                                          Path(work), out_dir / f"{stem}-spans.jsonl")
            else:
                outcome, results = untraced(root, args.workload, args.seed, args.seconds,
                                            Path(work))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1
    facts["load_after"] = os.getloadavg()
    facts.update(outcome["facts"])
    attempted = sum(len(r["latencies"]) for r in results)
    failures = [f for r in results for f in r["failures"]]
    facts.update(attempted=attempted, failed=len(failures),
                 error_rate=len(failures) / attempted)
    shown = metrics.report(outcome["values"], outcome["catalogue"])
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"facts": facts, "metrics": shown, "failures": failures}, handle, indent=1)

    for failure in failures[:FAILURES_SHOWN]:
        print(json.dumps({"check_failed": failure["message"],
                          "input": json.dumps(failure["request"])[:2000]}), file=sys.stderr)
    print(" ".join(f"{key}={facts[key]}" for key in (
        "workload", "seed", "trace", "attempted", "failed", "error_rate", "requests",
        "nproc", "python", "numpy", "load_before", "load_after")
        + (("latency_tail_percentile",) if not args.trace else ())))
    for name, entry in shown.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        # the sixth end-to-end figure; BENCHMARK.json cannot list it because it is 0 when correct
        print(f"  error_rate = {facts['error_rate']:.6g} ratio")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
