"""Command-line entry point with JSON input and output.

Exit codes: 0 success, 2 input validation failure, 3 symmetry violation, 4
enumeration cap, closed-form bound or sample limit exceeded, 5 oracle mismatch.
Every error goes to stderr as a single-line JSON object {"error": code,
"message": text}. Each command returns its exit code and its records, and
`main` writes them through `_write`; a stdout closed by its reader exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys

import coalition_forecast as cf  # loads no submodule; commands call cf.<module>.<name>

from .errors import (ClosedFormTooLarge, EnumerationTooLarge, IntegrationError,
                     SymmetryViolation, TooManySamples)

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


def _write(records: Iterable[dict | str]) -> None:
    """The one writer of stdout: each record and a newline; a str as is, a dict as JSON."""
    write = sys.stdout.write
    for record in records:
        write(record if isinstance(record, str)  # default=sorted: a frozenset as its sorted list
              else json.dumps(record, allow_nan=False, default=sorted))
        write("\n")
    sys.stdout.flush()


def _load_game(path: str, tolerance: float | None) -> SymmetricWorth:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    return cf.worth.game_worth(obj, tolerance)


def _bell_table(m: int) -> tuple[int, ...]:
    """B_0..B_m for a closed form at m; at m < 1, B_0 alone, and the closed form refuses m."""
    return cf.combinatorics.build_bell_table(max(m, 0))


def _cmd_predict(args: argparse.Namespace) -> tuple[int, list[dict]]:
    worth = _load_game(args.game, args.tolerance)
    return EXIT_OK, [cf.predictor.predict(worth, _bell_table(worth.m))._asdict()]


def _cmd_planes(args: argparse.Namespace) -> tuple[int, list[dict]]:
    system = cf.predictor.hyperplane_system(args.m, _bell_table(args.m))
    return EXIT_OK, [{"m": system.m, "degenerate": system.degenerate,
                      "exact_rows": [[str(a) for a in row] for row in system.exact_rows],
                      "rows": system.coefficients, "row_norms": system.row_norms}]


def _cmd_average(args: argparse.Namespace) -> tuple[int, list[dict]]:
    worth = _load_game(args.game, args.tolerance)
    return EXIT_OK, [{"v_tilde": cf.predictor.average_worth(worth, _bell_table(worth.m))}]


def _cmd_simulate(args: argparse.Namespace) -> tuple[int, Iterator[dict]]:
    replicator = cf.replicator
    worth = _load_game(args.game, args.tolerance)
    bell = _bell_table(worth.m)
    mode = (replicator.Mode.PAPER_CONSTANT_AVERAGE if args.mode == "paper"
            else replicator.Mode.FREQUENCY_WEIGHTED)
    config = replicator.DynamicsConfig(mode=mode, step_size=args.step, horizon=args.horizon,
                                       record_every=args.record_every)
    start = (replicator.uniform_frequencies(worth.m) if args.init == "uniform"
             else replicator.initial_frequencies(worth.m, bell))
    trajectory = replicator.integrate(start, worth, config, bell)
    return EXIT_OK, ({"t": state.time, "x": state.frequencies} for state in trajectory.states)


def _cmd_enumerate(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    """One record per prefix of all but the last two labels: its completions, one per line."""
    trailing, prefixes = cf.combinatorics._rgs_prefixes(args.m)  # checks m before heads grow
    heads = [f"{label} " for label in range(args.m)]
    tails = [[" ".join(map(str, tail)) for tail in cf.combinatorics._tails(nb, trailing)]
             for nb in range(args.m)]  # formatted once per block count

    def lines() -> Iterator[str]:
        for labels, _, nb in prefixes:
            head = "".join([heads[label] for label in labels])  # empty at m <= 2
            yield head + ("\n" + head).join(tails[nb])

    return EXIT_OK, lines()


def _cmd_stats(args: argparse.Namespace) -> tuple[int, list[dict]]:
    return EXIT_OK, [cf.combinatorics.partition_stats(args.m, _bell_table(args.m))._asdict()]


def _cmd_verify(args: argparse.Namespace) -> tuple[int, list[dict]]:
    report = cf.oracle.oracle_suite(args.m, trials=args.trials, seed=args.seed)
    return (EXIT_OK if report.passed else EXIT_ORACLE), [{**report._asdict(),
                                                          "passed": report.passed}]


def _build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="coalition-forecast",
        description="Predict which coalition structure the outsiders form "
                    "after a deviation, via hyperplane distances and "
                    "replicator dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def add_game_options(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("game", help="JSON game file (by_size or coalitions schema)")
        p.add_argument("--tolerance", type=float, default=None,
                       help="symmetry tolerance for coalition worths")
        return p

    add_game_options(command("predict", _cmd_predict, "min-distance coalition size prediction"))

    p_planes = command("planes", _cmd_planes, "equilibrium hyperplane system")
    p_planes.add_argument("--m", type=int, required=True, help="number of outsiders")

    add_game_options(command("average", _cmd_average, "structure-uniform average worth"))

    p_simulate = add_game_options(command("simulate", _cmd_simulate,
                                          "replicator dynamics trajectory"))
    p_simulate.add_argument("--mode", choices=("paper", "weighted"), default="paper",
                            help="constant-average or frequency-weighted benchmark")
    p_simulate.add_argument("--step", type=float, default=0.01,
                            help="sampling interval of the exact solution")
    p_simulate.add_argument("--horizon", type=float, default=10.0, help="end time")
    p_simulate.add_argument("--record-every", type=int, default=1,
                            help="record every N-th sampling step")
    p_simulate.add_argument("--init", choices=("structure", "uniform"), default="structure",
                            help="structure-uniform pushforward or uniform over sizes")

    p_enumerate = command("enumerate", _cmd_enumerate, "all coalition structures, one per line")
    p_enumerate.add_argument("--m", type=int, required=True, help="number of outsiders")

    p_stats = command("stats", _cmd_stats, "closed-form block-occurrence counts")
    p_stats.add_argument("--m", type=int, required=True, help="number of outsiders")

    p_verify = command("verify", _cmd_verify, "enumeration-vs-closed-form oracle suite")
    p_verify.add_argument("--m", type=int, required=True, help="number of outsiders")
    p_verify.add_argument("--trials", type=int, default=1000,
                          help="random worth vectors to test")
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, records = args.handler(args)
        _write(records)
        return code
    except BrokenPipeError:  # the reader closed stdout; the exit-time flush goes to devnull
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except SymmetryViolation as exc:
        _emit_error(EXIT_SYMMETRY, str(exc))
        return EXIT_SYMMETRY
    except (ClosedFormTooLarge, EnumerationTooLarge, TooManySamples) as exc:
        _emit_error(EXIT_CAP, str(exc))
        return EXIT_CAP
    except (IntegrationError, ValueError) as exc:
        _emit_error(EXIT_INPUT, str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
