"""The in-process workloads: forecast, dynamics and referee.

A workload is an endless, seeded sequence of blocks. A block holds the whole
request mix of its workload, in a seeded order, and a run stops only on a
block boundary. So every run has the same mix on every seed and only the
worths change. Each request names its class (its place in the mix), which
the metrics use to read each class's steady latency.

Each request goes through three steps: `prepare` turns the generated JSON
inputs into package objects (untimed), `execute` calls the package (timed,
one span per public call), and `check` compares the output with the
benchmark's own reference maths (untimed). `tally` adds the counts the
per-layer metrics need.
"""

from __future__ import annotations

import math
import random

import coalition_forecast as cf

import reference as ref

PREDICT_MS = (2, 3, 6, 12, 24, 48, 96)
SIDE_MS = (8, 10, 12)  # coalitions-schema and planes requests
DYNAMICS_MS = (3, 8, 20)
REFEREE_MS = (8, 9, 10)
STEP = 0.01
HORIZON = 20.0
SPARSE_EVERY = 100
AVERAGE_BATCH = 20
REST_TOLERANCE = 1e-9

WORKLOADS = ("forecast", "dynamics", "referee")


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _worths(rng: random.Random, m: int) -> list[float]:
    return [rng.uniform(-1.0, 1.0) for _ in range(m)]


def _symmetric_records(by_size: list[float]) -> list[dict]:
    m = len(by_size)
    return [{"members": [i for i in range(m) if mask >> i & 1],
             "worth": by_size[mask.bit_count() - 1]}
            for mask in range(1, 1 << m)]


def block(workload: str, seed: int, index: int) -> list[dict]:
    """The index-th block of requests, as plain JSON-ready dicts."""
    rng = _rng(workload, seed, index)
    if workload == "forecast":
        # every m of the predict mix once per side-request m, so each block has
        # the whole mix and its median is taken at the same place in it
        requests = [{"kind": "predict", "m": m, "by_size": _worths(rng, m)}
                    for _ in SIDE_MS for m in PREDICT_MS]
        for side in SIDE_MS:
            by_size = _worths(rng, side)
            requests.append({"kind": "coalitions", "m": side, "by_size": by_size,
                             "coalitions": _symmetric_records(by_size)})
            requests.append({"kind": "planes", "m": side, "by_size": _worths(rng, side)})
    elif workload == "dynamics":
        # the initial state barely changes the cost, so it alternates between
        # blocks and keeps a block to 12 requests
        init = ("structure", "uniform")[index % 2]
        requests = [{"kind": "integrate", "m": m, "by_size": _worths(rng, m), "init": init,
                     "mode": mode, "record_every": every}
                    for m in DYNAMICS_MS for mode in ("paper", "weighted")
                    for every in (1, SPARSE_EVERY)]
    elif workload == "referee":
        requests = []
        for m in REFEREE_MS:
            requests.append({"kind": "multiplicities", "m": m})
            requests.append({"kind": "average", "m": m,
                             "batch": [_worths(rng, m) for _ in range(AVERAGE_BATCH)]})
            requests.append({"kind": "optimal", "m": m, "entries": _worths(rng, (1 << m) - 1)})
            requests.append({"kind": "enumerate", "m": m})
    else:
        raise ValueError(f"unknown in-process workload {workload!r}")
    for req in requests:
        req["class"] = _request_class(req)
    rng.shuffle(requests)
    return requests


def _request_class(req: dict) -> str:
    """The request's place in the mix: the same work up to its seeded worths.

    The initial state alternates between blocks and barely changes the cost,
    so it is left out and each dynamics class has one sample per block.
    """
    name = f"{req['kind']}/m{req['m']}"
    if req["kind"] == "integrate":
        name += f"/{req['mode']}/every{req['record_every']}"
    return name


def warmup(workload: str) -> list[dict]:
    """Requests run once during set-up; for referee they fill oracle._size_profiles."""
    rng = _rng(workload, "warmup", 0)
    if workload == "forecast":
        return [{"kind": "predict", "m": 2, "by_size": _worths(rng, 2)},
                {"kind": "coalitions", "m": SIDE_MS[0],
                 "coalitions": _symmetric_records(_worths(rng, SIDE_MS[0]))},
                {"kind": "planes", "m": SIDE_MS[0], "by_size": _worths(rng, SIDE_MS[0])}]
    if workload == "dynamics":
        return [{"kind": "integrate", "m": DYNAMICS_MS[0], "by_size": _worths(rng, DYNAMICS_MS[0]),
                 "init": "structure", "mode": mode, "record_every": SPARSE_EVERY}
                for mode in ("paper", "weighted")]
    return [{"kind": "average", "m": m, "batch": [_worths(rng, m)]} for m in REFEREE_MS]


def max_m(workload: str) -> int:
    return {"forecast": max(PREDICT_MS), "dynamics": max(DYNAMICS_MS),
            "referee": max(REFEREE_MS)}[workload]


def _dynamics_config(req: dict) -> cf.DynamicsConfig:
    mode = cf.Mode.PAPER_CONSTANT_AVERAGE if req["mode"] == "paper" else cf.Mode.FREQUENCY_WEIGHTED
    return cf.DynamicsConfig(mode=mode, step_size=STEP, horizon=HORIZON,
                             record_every=req["record_every"])


def prepare(req: dict):
    """Package objects for a request; built outside the timed region."""
    kind, m = req["kind"], req["m"]
    if kind in ("predict", "planes", "integrate"):
        worth = cf.SymmetricWorth(m=m, by_size=tuple(req["by_size"]))
        return (worth, _dynamics_config(req)) if kind == "integrate" else worth
    if kind == "average":
        return [cf.SymmetricWorth(m=m, by_size=tuple(v)) for v in req["batch"]]
    if kind == "optimal":
        return cf.CharacteristicFunction(m=m, entries=dict(enumerate(req["entries"], start=1)))
    return None


def execute(req: dict, inputs, tr):
    """Run one request against the package, one span per public call."""
    kind, m = req["kind"], req["m"]
    if kind == "predict":
        bell = tr.call("combinatorics.build_bell_table", cf.build_bell_table, m)
        return tr.call("predictor.predict", cf.predict, inputs, bell, m=m)
    if kind == "coalitions":
        bell = tr.call("combinatorics.build_bell_table", cf.build_bell_table, m)
        game = tr.call("worth.characteristic_from_coalitions", cf.characteristic_from_coalitions,
                       m, req["coalitions"])
        worth = tr.call("worth.reduce_to_symmetric", cf.reduce_to_symmetric, game)
        return worth, tr.call("predictor.predict", cf.predict, worth, bell, m=m)
    if kind == "planes":
        bell = tr.call("combinatorics.build_bell_table", cf.build_bell_table, m)
        system = tr.call("predictor.hyperplane_system", cf.hyperplane_system, m, bell)
        values = tr.call("predictor.evaluate_planes", cf.evaluate_planes, inputs, system)
        return system, values, tr.call("predictor.distances", cf.distances, inputs, system)
    if kind == "integrate":
        worth, config = inputs
        bell = tr.call("combinatorics.build_bell_table", cf.build_bell_table, m)
        if req["init"] == "uniform":
            start = tr.call("replicator.uniform_frequencies", cf.uniform_frequencies, m)
        else:
            start = tr.call("replicator.initial_frequencies", cf.initial_frequencies, m, bell)
        trajectory = tr.call("replicator.integrate", cf.integrate, start, worth, config, bell)
        rest = tr.call("replicator.rest_point_check", cf.rest_point_check, trajectory.terminal,
                       worth, config.mode, bell, REST_TOLERANCE)
        return trajectory, rest
    if kind == "multiplicities":
        return tr.call("oracle.brute_force_multiplicities", cf.brute_force_multiplicities, m)
    if kind == "average":
        return [tr.call("oracle.brute_force_average", cf.brute_force_average, worth, m=m)
                for worth in inputs]
    if kind == "optimal":
        return tr.call("oracle.optimal_structure", cf.optimal_structure, inputs)
    if kind == "enumerate":
        return tr.call("combinatorics.enumerate_partitions", lambda: ref.sequence_digest(
            part.labels for part in cf.enumerate_partitions(m)))
    raise ValueError(f"unknown request kind {kind!r}")


def _close(got: float, want: float, rel: float) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=0.0)


def _check_prediction(by_size, report) -> str | None:
    want = ref.prediction(by_size)
    if report.argmin_set != want.argmin_set:
        return f"argmin_set {sorted(report.argmin_set)} != exact {sorted(want.argmin_set)}"
    if report.chosen_size != min(want.argmin_set):
        return f"chosen_size {report.chosen_size} != {min(want.argmin_set)}"
    if not _close(report.average_worth, float(want.average_worth), 1e-12):
        return f"average_worth {report.average_worth!r} != {float(want.average_worth)!r}"
    for k, (got, r) in enumerate(zip(report.residuals, want.residuals), start=1):
        if not _close(got, float(r), 1e-12):
            return f"residual k={k}: {got!r} != {float(r)!r}"
    return _check_distances(report.distances, want.distances)


def _check_distances(got_all, want_all) -> str | None:
    if len(got_all) != len(want_all):
        return f"{len(got_all)} distances for m={len(want_all)}"
    for k, (got, want) in enumerate(zip(got_all, want_all), start=1):
        if not _close(got, want, 1e-9):
            return f"distance k={k}: {got!r} != {want!r}"
    return None


def _check_trajectory(req: dict, trajectory, rest) -> str | None:
    n_steps = round(HORIZON / STEP)
    expected = ref.recorded_samples(n_steps, req["record_every"])
    if len(trajectory.states) != expected:
        return f"{len(trajectory.states)} states recorded, expected {expected}"
    terminal = trajectory.terminal
    if not _close(terminal.time, HORIZON, 1e-9):
        return f"terminal time {terminal.time!r} != {HORIZON}"
    problem = ref.trajectory_mismatch(terminal.frequencies, req["by_size"], req["init"],
                                      req["mode"], terminal.time)
    if problem is not None:
        return problem
    x = terminal.frequencies
    payoffs = [v / k for k, v in enumerate(req["by_size"], start=1)]
    if req["mode"] == "paper":
        avg = float(ref.average_worth(req["by_size"]))
    else:
        avg = math.fsum(xk * p for xk, p in zip(x, payoffs))
    for k, (got, xk, p) in enumerate(zip(rest.growth_rates, x, payoffs), start=1):
        want = xk * (p - avg)
        if abs(got - want) > 1e-9 * xk * (abs(p) + abs(avg)) + 1e-300:
            return f"rest_point_check growth k={k}: {got!r} != {want!r}"
    return None


def _check_optimal(req: dict, result) -> str | None:
    m, entries = req["m"], req["entries"]
    masks = [0] * m
    for elem, lab in enumerate(result.partition.labels):
        masks[lab] |= 1 << elem
    own = math.fsum(entries[mask - 1] for mask in masks if mask)
    if not math.isclose(result.total_worth, own, rel_tol=1e-9, abs_tol=1e-9):
        return f"total_worth {result.total_worth!r} but its partition is worth {own!r}"
    best = ref.best_structure_worth(m, [0.0] + entries)
    if not math.isclose(result.total_worth, best, rel_tol=1e-9, abs_tol=1e-9):
        return f"total_worth {result.total_worth!r} != subset-DP optimum {best!r}"
    if result.predicted_size is not None:
        return f"non-symmetric game got predicted_size {result.predicted_size}"
    return None


def check(req: dict, output) -> str | None:
    """None when the output matches the reference, else what is wrong."""
    kind, m = req["kind"], req["m"]
    if kind == "predict":
        return _check_prediction(req["by_size"], output)
    if kind == "coalitions":
        worth, report = output
        if list(worth.by_size) != req["by_size"]:
            return f"reduce_to_symmetric gave {list(worth.by_size)}, expected {req['by_size']}"
        return _check_prediction(req["by_size"], report)
    if kind == "planes":
        system, values, dists = output
        want = ref.prediction(req["by_size"])
        for k, (got, r) in enumerate(zip(values, want.residuals), start=1):
            if not _close(got, float(r), 1e-12):
                return f"evaluate_planes k={k}: {got!r} != {float(r)!r}"
        for k, (got, norm) in enumerate(zip(system.row_norms, want.row_norms), start=1):
            if not _close(got, norm, 1e-9):
                return f"row_norm k={k}: {got!r} != {norm!r}"
        return _check_distances(dists, want.distances)
    if kind == "integrate":
        return _check_trajectory(req, *output)
    if kind == "multiplicities":
        if list(output.multiplicity) != ref.size_weights(m):
            return f"multiplicity {list(output.multiplicity)} != {ref.size_weights(m)}"
        if list(output.choice_counts) != ref.choice_counts(m):
            return f"choice_counts {list(output.choice_counts)} != {ref.choice_counts(m)}"
        return None
    if kind == "average":
        for i, (got, by_size) in enumerate(zip(output, req["batch"])):
            want = float(ref.average_worth(by_size))
            if not _close(got, want, 1e-12):
                return f"batch[{i}]: brute_force_average {got!r} != {want!r}"
        return None
    if kind == "optimal":
        return _check_optimal(req, output)
    if kind == "enumerate":
        count, want = output[0], ref.partitions_digest(m)
        if output != want:
            return f"{count} partitions (B_{m} = {want[0]}) or not the canonical ones in order"
        return None
    raise ValueError(f"unknown request kind {kind!r}")


def new_counts() -> dict:
    return {"predictor.tie_count": 0, "worth.coalitions": 0,
            "replicator.integrate.samples": 0, "replicator.integrate.sim_time": 0.0,
            "replicator.clamp_events": 0, "replicator.max_simplex_drift": 0.0,
            "partitions.multiplicities": 0, "partitions.optimal": 0, "partitions.enumerate": 0}


def tally(req: dict, output, counts: dict) -> None:
    """Add the counts behind the per-layer metrics that one output carries."""
    kind, m = req["kind"], req["m"]
    report = output[1] if kind == "coalitions" else output
    if kind in ("predict", "coalitions") and len(report.argmin_set) > 1:
        counts["predictor.tie_count"] += 1
    if kind == "coalitions":
        counts["worth.coalitions"] += (1 << m) - 1
    elif kind == "integrate":
        trajectory = output[0]
        counts["replicator.integrate.samples"] += len(trajectory.states)
        counts["replicator.integrate.sim_time"] += trajectory.terminal.time
        counts["replicator.clamp_events"] += trajectory.clamp_events
        if req["mode"] == "weighted":
            counts["replicator.max_simplex_drift"] = max(
                counts["replicator.max_simplex_drift"], trajectory.max_simplex_drift)
    elif kind in ("multiplicities", "optimal", "enumerate"):
        counts[f"partitions.{kind}"] += ref.bell_numbers(m)[m]


def setup(workload: str, tr) -> None:
    """Bell tables plus one warm-up pass; runs before the worker reports ready."""
    with tr.request("setup", "setup"):
        tr.call("combinatorics.build_bell_table", cf.build_bell_table, max_m(workload))
        for req in warmup(workload):
            execute(req, prepare(req), tr)
