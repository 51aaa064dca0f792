"""The cli-cold workload: one fresh `python -m coalition_forecast.cli` per request.

Interpreter start plus import is nearly all of a cold call, so this is where
import-time work and CLI changes show. About one request in ten is invalid by
design and must end in its documented exit code with one JSON line on stderr.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference as ref
from tracing import END, NAME, START, self_times

COMMANDS = ("predict", "average", "stats", "planes", "simulate", "enumerate", "verify")
PROBES = {"pass": "pass", "numpy": "import numpy", "package": "import coalition_forecast"}
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 60
STEP = 0.01  # the CLI's default simulate step


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("COALITION_FORECAST_ENUM_CAP", None)
    return env


def _run_child(argv: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def _timed_run(argv: list[str], env: dict, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    done = _run_child(argv, env, cwd)
    return perf_counter() - start, done


def probes(root: Path, tr) -> dict[str, list[float]]:
    """Cold-start split: bare interpreter, numpy import, package import, interleaved."""
    env = child_env(root)
    times: dict[str, list[float]] = {name: [] for name in PROBES}
    for _ in range(PROBE_REPEATS):
        for name, code in PROBES.items():
            seconds, done = tr.call(f"probe.{name}", _timed_run, [sys.executable, "-c", code],
                                    env, root)
            if done.returncode != 0:
                raise RuntimeError(f"probe {code!r} exited {done.returncode}: {done.stderr[-500:]}")
            times[name].append(seconds)
    return times


def probe_values(times: dict[str, list[float]]) -> dict[str, float]:
    bare = statistics.median(times["pass"])
    return {
        "cli.interp_start_ms": bare * 1000.0,
        "cli.import_ms": (statistics.median(times["package"]) - bare) * 1000.0,
        "cli.import_numpy_ms": (statistics.median(times["numpy"]) - bare) * 1000.0,
    }


def _worths(rng: random.Random, m: int) -> list[float]:
    return [rng.uniform(-1.0, 1.0) for _ in range(m)]


def _records(by_size: list[float]) -> list[dict]:
    m = len(by_size)
    return [{"members": [i for i in range(m) if mask >> i & 1],
             "worth": by_size[mask.bit_count() - 1]}
            for mask in range(1, 1 << m)]


def block(workload: str, seed: int, index: int) -> list[dict]:
    """Ten requests: every command once or twice, and one invalid input."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    requests = []
    for command in ("predict", "average"):
        m = rng.randint(2, 8)
        requests.append({"kind": command, "class": f"{command}/by_size",
                         "argv": [command, "{game}"], "expect": 0,
                         "by_size": (by_size := _worths(rng, m)),
                         "game": {"m": m, "by_size": by_size}})
        m = rng.randint(2, 5)
        requests.append({"kind": command, "class": f"{command}/coalitions",
                         "argv": [command, "{game}"], "expect": 0,
                         "by_size": (by_size := _worths(rng, m)),
                         "game": {"m": m, "coalitions": _records(by_size)}})
    for command in ("stats", "planes"):
        m = rng.randint(1, 8)
        requests.append({"kind": command, "argv": [command, "--m", str(m)], "expect": 0, "m": m})
    m = rng.randint(2, 6)
    sim = {"mode": rng.choice(("paper", "weighted")), "init": rng.choice(("structure", "uniform")),
           "horizon": rng.randint(2, 5), "record_every": rng.choice((10, 20, 25, 50))}
    requests.append({"kind": "simulate", "expect": 0, "by_size": (by_size := _worths(rng, m)),
                     "game": {"m": m, "by_size": by_size}, **sim,
                     "argv": ["simulate", "{game}", "--mode", sim["mode"], "--init", sim["init"],
                              "--horizon", str(sim["horizon"]),
                              "--record-every", str(sim["record_every"])]})
    m = rng.randint(1, 6)
    requests.append({"kind": "enumerate", "argv": ["enumerate", "--m", str(m)], "expect": 0,
                     "m": m})
    m, trials = rng.randint(2, 6), rng.randint(10, 100)
    requests.append({"kind": "verify", "expect": 0, "m": m, "trials": trials,
                     "argv": ["verify", "--m", str(m), "--trials", str(trials),
                              "--seed", str(rng.randrange(1000))]})
    requests.append(_invalid(rng, index))
    for req in requests:
        req.setdefault("class", req["kind"])
    rng.shuffle(requests)
    return requests


def _invalid(rng: random.Random, index: int) -> dict:
    """Malformed JSON (exit 2), asymmetric coalitions (3), enumerate above the cap (4)."""
    flavour = index % 3
    if flavour == 0:
        m = rng.randint(2, 6)
        text = json.dumps({"m": m, "by_size": _worths(rng, m)})
        return {"kind": "invalid", "argv": ["predict", "{game}"], "expect": 2, "text": text[:-2]}
    if flavour == 1:
        m = rng.randint(2, 5)
        records = _records(_worths(rng, m))
        records[rng.randrange(len(records) - 1)]["worth"] += 0.5  # the grand coalition has no peer
        return {"kind": "invalid", "argv": ["predict", "{game}"], "expect": 3,
                "game": {"m": m, "coalitions": records}}
    return {"kind": "invalid", "argv": ["enumerate", "--m", str(rng.randint(13, 16))], "expect": 4}


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


def _strict_json(line: str):
    return json.loads(line, parse_constant=_reject_constant)


def _close(got: float, want: float, rel: float) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=0.0)


def _check_stdout(req: dict, out: str) -> str | None:
    kind = req["kind"]
    lines = out.splitlines()
    if kind == "enumerate":
        want = [" ".join(map(str, labels)) for labels in ref.restricted_growth_strings(req["m"])]
        if lines != want:
            return f"enumerate printed {len(lines)} lines, not the {len(want)} canonical partitions"
        return None
    objs = [_strict_json(line) for line in lines]
    if kind == "simulate":
        n_steps = max(1, round(req["horizon"] / STEP))
        expected = ref.recorded_samples(n_steps, req["record_every"])
        if len(objs) != expected:
            return f"simulate printed {len(objs)} states, expected {expected}"
        last = objs[-1]
        if not _close(last["t"], req["horizon"], 1e-9):
            return f"last t {last['t']!r} != horizon {req['horizon']}"
        return ref.trajectory_mismatch(last["x"], req["by_size"], req["init"], req["mode"],
                                       last["t"])
    if len(objs) != 1:
        return f"{kind} printed {len(objs)} lines, expected one JSON object"
    obj = objs[0]
    if kind == "predict":
        want = ref.prediction(req["by_size"])
        exact = sorted(want.argmin_set)
        if obj["argmin_set"] != exact or obj["chosen_size"] != exact[0]:
            return f"argmin {obj['argmin_set']} / chosen {obj['chosen_size']}, exact {exact}"
        for k, (got, d) in enumerate(zip(obj["distances"], want.distances), start=1):
            if not _close(got, d, 1e-9):
                return f"distance k={k}: {got!r} != {d!r}"
    elif kind == "average":
        want = float(ref.average_worth(req["by_size"]))
        if not _close(obj["v_tilde"], want, 1e-12):
            return f"v_tilde {obj['v_tilde']!r} != {want!r}"
    elif kind == "stats":
        m = req["m"]
        if obj["multiplicity"] != ref.size_weights(m) or obj["choice_counts"] != ref.choice_counts(m):
            return f"stats for m={req['m']} differ from C(m,k)*B(m-k)"
    elif kind == "planes":
        norms = ref.prediction([0.0] * req["m"]).row_norms
        if len(obj["rows"]) != req["m"]:
            return f"planes printed {len(obj['rows'])} rows for m={req['m']}"
        for k, (got, want) in enumerate(zip(obj["row_norms"], norms), start=1):
            if not _close(got, want, 1e-9):
                return f"row_norm k={k}: {got!r} != {want!r}"
    elif kind == "verify":
        if obj["passed"] is not True or obj["m"] != req["m"] or obj["trials"] != req["trials"]:
            return f"verify report {obj}"
    return None


class CliCold:
    """Workload spec (see loop.py) that runs each request as a fresh CLI process."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.env = child_env(root)
        self.game = workdir / "game.json"

    def _argv(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "coalition_forecast.cli", *args]

    def setup_times(self, samples: int) -> list[float]:
        """Cold starts of a no-op command (--help)."""
        times = []
        for _ in range(samples):
            seconds, done = _timed_run(self._argv(["--help"]), self.env, self.root)
            if done.returncode != 0:
                raise RuntimeError(f"--help exited {done.returncode}: {done.stderr[-500:]}")
            times.append(seconds)
        return times

    block = staticmethod(block)

    @staticmethod
    def new_counts() -> dict:
        return {"cli.exit_code_mismatches": 0}

    def prepare(self, req: dict) -> list[str]:
        if "game" in req or "text" in req:
            text = req["text"] if "text" in req else json.dumps(req["game"])
            self.game.write_text(text, encoding="utf-8")
        return self._argv([str(self.game) if a == "{game}" else a for a in req["argv"]])

    def _spawn(self, argv: list[str]) -> tuple[int, str, str]:
        done = _run_child(argv, self.env, self.root)
        return done.returncode, done.stdout, done.stderr

    def execute(self, req: dict, argv: list[str], tr):
        return tr.call("cli." + req["kind"], self._spawn, argv)

    @staticmethod
    def check(req: dict, output) -> str | None:
        code, out, err = output
        if code != req["expect"]:
            return f"exit code {code}, expected {req['expect']}; stderr {err[-300:]!r}"
        try:
            if req["expect"]:
                if out:
                    return f"stdout not empty on error: {out[:200]!r}"
                lines = err.splitlines()
                if len(lines) != 1:
                    return f"stderr has {len(lines)} lines, expected one JSON line"
                obj = _strict_json(lines[0])
                if not (isinstance(obj, dict) and obj.get("error") == req["expect"]
                        and "message" in obj):
                    return (f"stderr JSON {lines[0][:200]!r} lacks error={req['expect']}"
                            " and a message")
                return None
            if err:
                return f"stderr not empty on success: {err[-300:]!r}"
            return _check_stdout(req, out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    @staticmethod
    def tally(req: dict, output, counts: dict) -> None:
        counts["cli.exit_code_mismatches"] += output[0] != req["expect"]


def layer_values(spans, probe_times: dict[str, list[float]]) -> dict[str, float]:
    """cli.* metrics of a traced cli-cold run: child spans plus the probes."""
    values = probe_values(probe_times)
    package = statistics.median(probe_times["package"])
    durations: dict[str, list[float]] = {}
    values["bench.self_ms"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        if name.startswith("cli."):
            durations.setdefault(name[4:], []).append(span[END] - span[START])
        elif name.startswith("request."):
            values["bench.self_ms"] += own * 1000.0
    for command in COMMANDS:
        samples = durations.get(command)
        values[f"cli.compute_ms.{command}"] = (
            (statistics.median(samples) - package) * 1000.0 if samples else 0.0)
    children = [d for samples in durations.values() for d in samples]
    values["cli.calls"] = len(children)
    values["cli.busy_ms"] = math.fsum(children) * 1000.0
    values["trace.spans"] = len(spans)
    return values
