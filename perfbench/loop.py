"""The closed loop every workload runs: one client, no think time.

A workload spec supplies block(workload, seed, index), prepare(req),
execute(req, inputs, tracer), check(req, output), new_counts() and
tally(req, output, counts). Only `execute` is timed. The loop runs whole
blocks until `seconds` have passed, and at least one block. Every request
names its class, the same work up to its seeded values; `classes` lets the
metrics be taken per class.
"""

from __future__ import annotations

import traceback
from time import perf_counter


def run_loop(spec, workload: str, seed: int, seconds: float, tr) -> dict:
    latencies: list[float] = []
    failures: list[dict] = []
    counts = spec.new_counts()
    classes: list[str] = []
    deadline = perf_counter() + seconds
    index = 0
    while index == 0 or perf_counter() < deadline:
        for n, req in enumerate(spec.block(workload, seed, index)):
            inputs = spec.prepare(req)
            classes.append(req["class"])
            start = perf_counter()
            try:
                with tr.request(f"{index}.{n}", req["kind"]):
                    output = spec.execute(req, inputs, tr)
            except Exception:
                latencies.append(perf_counter() - start)
                failures.append({"request": req, "message": traceback.format_exc(limit=4)})
                continue
            latencies.append(perf_counter() - start)
            problem = spec.check(req, output)
            if problem is not None:
                failures.append({"request": req, "message": problem})
            spec.tally(req, output, counts)
            # a large output kept alive would slow the next request's garbage collection
            del inputs, output
        index += 1
    return {"latencies": latencies, "classes": classes, "failures": failures, "counts": counts,
            "blocks": index}
