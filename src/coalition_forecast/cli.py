"""Command-line entry point with JSON input and output.

Exit codes: 0 success, 2 input validation failure, 3 symmetry violation,
4 enumeration cap or sample limit exceeded, 5 oracle mismatch. Every error
goes to stderr as a single-line JSON object {"error": code, "message": text}.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .combinatorics import (
    EnumerationTooLarge,
    build_bell_table,
    enumerate_partitions,
    partition_stats,
)
from .oracle import oracle_suite
from .predictor import average_worth, hyperplane_system, predict
from .replicator import (
    DynamicsConfig,
    IntegrationError,
    Mode,
    TooManySamples,
    initial_frequencies,
    integrate,
    uniform_frequencies,
)
from .worth import (
    DEFAULT_SYMMETRY_TOLERANCE,
    SymmetricWorth,
    SymmetryViolation,
    characteristic_from_coalitions,
    check_tolerance,
    reduce_to_symmetric,
    worth_from_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SYMMETRY = 3
EXIT_CAP = 4
EXIT_ORACLE = 5


class _JsonErrorParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        _emit_error(EXIT_INPUT, message)
        raise SystemExit(EXIT_INPUT)


def _emit_error(code: int, message: str) -> None:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)


def _dump(obj: dict) -> None:
    print(json.dumps(obj, allow_nan=False))


def game_worth(obj, tolerance: float = DEFAULT_SYMMETRY_TOLERANCE) -> SymmetricWorth:
    """The outsiders' per-size worths from a parsed game file; ValueError if malformed."""
    check_tolerance(tolerance)
    if not isinstance(obj, dict):
        raise ValueError("game file must contain a JSON object")
    m = _resolve_outsider_count(obj)
    if ("by_size" in obj) == ("coalitions" in obj):
        raise ValueError("provide exactly one of 'by_size' or 'coalitions'")
    if "by_size" in obj:
        by_size = obj["by_size"]
        if not isinstance(by_size, list) or len(by_size) != m:
            raise ValueError(f"'by_size' must be a list of {m} worths")
        try:
            return SymmetricWorth(m=m, by_size=tuple(worth_from_json(v) for v in by_size))
        except ValueError as exc:
            raise ValueError(f"invalid 'by_size': {exc}") from exc
    coalitions = obj["coalitions"]
    if not isinstance(coalitions, list):
        raise ValueError("'coalitions' must be a list of records")
    return reduce_to_symmetric(characteristic_from_coalitions(m, coalitions), tolerance)


def _resolve_outsider_count(obj: dict) -> int:
    m = obj.get("m")
    n = obj.get("n")
    s = obj.get("s")
    for name, value in (("m", m), ("n", n), ("s", s)):
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"'{name}' must be an integer")
    if (n is None) != (s is None):
        raise ValueError("'n' and 's' must be given together")
    if n is not None:
        if not n > s >= 1:
            raise ValueError(f"need n > s >= 1, got n={n}, s={s}")
        if m is not None and m != n - s:
            raise ValueError(f"inconsistent counts: m={m} but n-s={n - s}")
        m = n - s
    if m is None:
        raise ValueError("provide 'm', or 'n' together with 's'")
    if m < 1:
        raise ValueError(f"'m' must be positive, got {m}")
    return m


def _load_game(path: str, tolerance: float) -> SymmetricWorth:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    return game_worth(obj, tolerance)


def _cmd_predict(args: argparse.Namespace) -> int:
    worth = _load_game(args.game, args.tolerance)
    report = predict(worth, build_bell_table(worth.m))
    _dump(report.to_dict())
    return EXIT_OK


def _cmd_planes(args: argparse.Namespace) -> int:
    bell = build_bell_table(args.m)
    system = hyperplane_system(args.m, bell)
    _dump({
        "m": system.m,
        "degenerate": system.degenerate,
        "exact_rows": [[str(a) for a in row] for row in system.exact_rows],
        "rows": [list(row) for row in system.coefficients],
        "row_norms": list(system.row_norms),
    })
    return EXIT_OK


def _cmd_average(args: argparse.Namespace) -> int:
    worth = _load_game(args.game, args.tolerance)
    _dump({"v_tilde": average_worth(worth, build_bell_table(worth.m))})
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    worth = _load_game(args.game, args.tolerance)
    bell = build_bell_table(worth.m)
    mode = Mode.PAPER_CONSTANT_AVERAGE if args.mode == "paper" else Mode.FREQUENCY_WEIGHTED
    config = DynamicsConfig(mode=mode, step_size=args.step, horizon=args.horizon,
                            record_every=args.record_every)
    if args.init == "uniform":
        start = uniform_frequencies(worth.m)
    else:
        start = initial_frequencies(worth.m, bell)
    trajectory = integrate(start, worth, config, bell)
    for state in trajectory.states:
        print(json.dumps({"t": state.time, "x": list(state.frequencies)},
                         allow_nan=False))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for part in enumerate_partitions(args.m, cap=args.cap):
        print(" ".join(str(lab) for lab in part.labels))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    bell = build_bell_table(args.m)
    _dump(asdict(partition_stats(args.m, bell)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = oracle_suite(args.m, trials=args.trials, seed=args.seed, cap=args.cap)
    _dump(report.to_dict())
    return EXIT_OK if report.passed else EXIT_ORACLE


def _build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="coalition-forecast",
        description="Predict which coalition structure the outsiders form "
                    "after a deviation, via hyperplane distances and "
                    "replicator dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("game", help="JSON game file (by_size or coalitions schema)")
        p.add_argument("--tolerance", type=float, default=DEFAULT_SYMMETRY_TOLERANCE,
                       help="symmetry tolerance for coalition worths")

    p_predict = sub.add_parser("predict", help="min-distance coalition size prediction")
    add_game_options(p_predict)
    p_predict.set_defaults(handler=_cmd_predict)

    p_planes = sub.add_parser("planes", help="equilibrium hyperplane system")
    p_planes.add_argument("--m", type=int, required=True, help="number of outsiders")
    p_planes.set_defaults(handler=_cmd_planes)

    p_average = sub.add_parser("average", help="structure-uniform average worth")
    add_game_options(p_average)
    p_average.set_defaults(handler=_cmd_average)

    p_simulate = sub.add_parser("simulate", help="replicator dynamics trajectory")
    add_game_options(p_simulate)
    p_simulate.add_argument("--mode", choices=("paper", "weighted"), default="paper",
                            help="constant-average or frequency-weighted benchmark")
    p_simulate.add_argument("--step", type=float, default=0.01,
                            help="sampling interval of the exact solution")
    p_simulate.add_argument("--horizon", type=float, default=10.0, help="end time")
    p_simulate.add_argument("--record-every", type=int, default=1,
                            help="record every N-th sampling step")
    p_simulate.add_argument("--init", choices=("structure", "uniform"), default="structure",
                            help="structure-uniform pushforward or uniform over sizes")
    p_simulate.set_defaults(handler=_cmd_simulate)

    p_enumerate = sub.add_parser("enumerate", help="all coalition structures, one per line")
    p_enumerate.add_argument("--m", type=int, required=True, help="number of outsiders")
    p_enumerate.add_argument("--cap", type=int, default=None,
                             help="override the enumeration cap")
    p_enumerate.set_defaults(handler=_cmd_enumerate)

    p_stats = sub.add_parser("stats", help="closed-form block-occurrence counts")
    p_stats.add_argument("--m", type=int, required=True, help="number of outsiders")
    p_stats.set_defaults(handler=_cmd_stats)

    p_verify = sub.add_parser("verify", help="enumeration-vs-closed-form oracle suite")
    p_verify.add_argument("--m", type=int, required=True, help="number of outsiders")
    p_verify.add_argument("--trials", type=int, default=1000,
                          help="random worth vectors to test")
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_verify.add_argument("--cap", type=int, default=None,
                          help="override the enumeration cap")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SymmetryViolation as exc:
        _emit_error(EXIT_SYMMETRY, str(exc))
        return EXIT_SYMMETRY
    except (EnumerationTooLarge, TooManySamples) as exc:
        _emit_error(EXIT_CAP, str(exc))
        return EXIT_CAP
    except (IntegrationError, ValueError) as exc:
        _emit_error(EXIT_INPUT, str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
