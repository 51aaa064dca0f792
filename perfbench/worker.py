"""One fresh worker process for an in-process workload.

    python3 perfbench/worker.py --workload forecast --seed 1 --seconds 10 --trace 0

The package must be importable (run.py sets PYTHONPATH to the checkout's
src). The worker sets up, prints READY, and exits there with --setup-only.
Otherwise it runs the closed loop and prints one JSON line with its results.
"""

from __future__ import annotations

import argparse
import json

import inprocess
import loop
import metrics
from tracing import NullTracer, Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inprocess.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)

    tr = Tracer() if args.trace else NullTracer()
    inprocess.setup(args.workload, tr)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = loop.run_loop(inprocess, args.workload, args.seed, args.seconds, tr)
    if args.trace:
        result["layers"] = metrics.layer_values(tr.spans, result["counts"])
        if args.spans:
            tr.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
