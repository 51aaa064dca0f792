"""CLI subcommands, JSON I/O, and exit codes."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coalition_forecast
from coalition_forecast import cli
from coalition_forecast.oracle import VerificationReport
from partition_reference import rgs


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"m": 3, "by_size": [0, 1, 1]}))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_grand_coalition_prediction(self, capsys, game_file):
        code, out, err = run(capsys, "predict", game_file)
        assert code == 0
        report = json.loads(out)
        assert report["chosen_size"] == 3
        assert report["argmin_set"] == [3]
        assert report["distances"] == pytest.approx([0.419, 0.463, 0.128], abs=5e-4)
        assert err == ""

    def test_byte_stable(self, capsys, game_file):
        _, first, _ = run(capsys, "predict", game_file)
        _, second, _ = run(capsys, "predict", game_file)
        assert first == second

    def test_coalition_schema(self, capsys, tmp_path):
        game = {
            "n": 4, "s": 1,
            "coalitions": [
                {"members": [0], "worth": 0}, {"members": [1], "worth": 0},
                {"members": [2], "worth": 0}, {"members": [0, 1], "worth": 1},
                {"members": [0, 2], "worth": 1}, {"members": [1, 2], "worth": 1},
                {"members": [0, 1, 2], "worth": 1},
            ],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game))
        code, out, _ = run(capsys, "predict", str(path))
        assert code == 0
        assert json.loads(out)["chosen_size"] == 3

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "predict", "/nonexistent/game.json")
        assert code == 2
        assert json.loads(err)["error"] == 2

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "predict", str(path))
        assert code == 2
        assert "invalid JSON" in json.loads(err)["message"]

    @pytest.mark.parametrize("game, nulls, chosen", [
        ({"m": 8, "by_size": [1.7e308] + [-1.7e308] * 7},
         {"residuals": [1], "distances": [1]}, 8),
        ({"m": 6, "by_size": [1.7e308] + [-1.7e308] * 5},
         {"residuals": [], "distances": [1, 2]}, 6),
    ])
    def test_values_beyond_float_range_are_null(self, capsys, tmp_path, game, nulls, chosen):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "predict", str(path))
        assert code == 0 and err == ""
        report = json.loads(out, parse_constant=pytest.fail)
        for name, sizes in nulls.items():
            assert [k for k, x in enumerate(report[name], start=1) if x is None] == sizes
        assert report["chosen_size"] == chosen
        assert any("beyond the float range" in note for note in report["notes"])

    @pytest.mark.parametrize("game", [
        {"m": 3, "by_size": [True, False, 1]},
        {"m": 1, "coalitions": [{"members": [0], "worth": True}]},
    ])
    def test_boolean_worths_rejected(self, capsys, tmp_path, game):
        path = tmp_path / "bools.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "boolean" in json.loads(err)["message"]

    @pytest.mark.parametrize("game", [
        {"m": 3, "by_size": ["0", "1", "1"]},
        {"m": 3, "by_size": [0, None, 1]},
        {"m": 1, "coalitions": [{"members": [0], "worth": "1.5"}]},
    ])
    def test_non_number_worths_rejected(self, capsys, tmp_path, game):
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "must be a number" in json.loads(err)["message"]

    def test_integer_worth_beyond_float_range_rejected(self, capsys, tmp_path):
        path = tmp_path / "bigint.json"
        path.write_text('{"m": 2, "by_size": [1, 1' + "0" * 400 + "]}")
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2 and out == ""
        assert "beyond the float range" in json.loads(err)["message"]

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "invalid JSON" in json.loads(err)["message"]

    def test_same_size_worths_near_the_float_maximum(self, capsys, tmp_path):
        # their float sum overflows; their exact mean is in range
        game = {"m": 2, "coalitions": [
            {"members": [0], "worth": 1.7e308}, {"members": [1], "worth": 1.6999999999999998e308},
            {"members": [0, 1], "worth": 1.0},
        ]}
        path = tmp_path / "near-max.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "average", str(path))
        assert code == 0 and err == ""
        # v(1) is the mean of the halves, both exact; v~ = v(1)/2 + 1/4 rounds to v(1)/2
        mean = 1.7e308 / 2 + 1.6999999999999998e308 / 2
        assert json.loads(out) == {"v_tilde": mean / 2}

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "-0.5"])
    @pytest.mark.parametrize("schema", ["by_size", "coalitions"])
    def test_invalid_tolerance_exits_2(self, capsys, tmp_path, tolerance, schema):
        game = {"m": 1, "by_size": [1.0]} if schema == "by_size" else {
            "m": 1, "coalitions": [{"members": [0], "worth": 1.0}]}
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "predict", str(path), "--tolerance", tolerance)
        assert code == 2 and out == ""
        assert "tolerance must be non-negative" in json.loads(err)["message"]

    @pytest.mark.parametrize("members", ["ab", [0.5], None, [[0]], [True]])
    def test_members_must_be_a_list_of_integers(self, capsys, tmp_path, members):
        game = {"m": 2, "coalitions": [{"members": [0], "worth": 1.0},
                                       {"members": members, "worth": 1.0},
                                       {"members": [0, 1], "worth": 1.0}]}
        path = tmp_path / "members.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "'members' must be a list of integers" in json.loads(err)["message"]

    @pytest.mark.parametrize("member", [0, 19999])
    def test_record_count_checked_before_any_shift(self, capsys, tmp_path, member):
        game = {"m": 10 ** 8, "coalitions": [{"members": [member], "worth": 1}]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == ("characteristic function for m=100000000 needs "
                                              "2^100000000 - 1 coalition worths, got 1")

    def test_symmetry_violation_exit_code(self, capsys, tmp_path):
        game = {
            "m": 2,
            "coalitions": [
                {"members": [0], "worth": 0}, {"members": [1], "worth": 1},
                {"members": [0, 1], "worth": 1},
            ],
        }
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(game))
        code, _, err = run(capsys, "predict", str(path))
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == 3
        assert "symmetry" in payload["message"]


class TestGameInput:
    def test_m_and_ns_consistent(self):
        assert cli.game_worth({"n": 5, "s": 2, "m": 3, "by_size": [1, 2, 3]}).m == 3

    def test_m_inconsistent_with_ns(self):
        with pytest.raises(ValueError, match="inconsistent"):
            cli.game_worth({"n": 5, "s": 1, "m": 3, "by_size": [1, 2, 3]})

    def test_n_without_s(self):
        with pytest.raises(ValueError, match="together"):
            cli.game_worth({"n": 5, "by_size": [1]})

    def test_n_not_greater_than_s(self):
        with pytest.raises(ValueError, match="n > s"):
            cli.game_worth({"n": 2, "s": 2, "by_size": []})

    def test_neither_m_nor_ns(self):
        with pytest.raises(ValueError, match="provide"):
            cli.game_worth({"by_size": [1]})

    def test_both_worth_schemas_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            cli.game_worth({"m": 1, "by_size": [1], "coalitions": []})

    @pytest.mark.parametrize("game, message", [
        ({"m": 0, "by_size": []}, "'m' must be positive, got 0"),
        ({"m": 1, "coalitions": {"members": [0], "worth": 1}},
         "'coalitions' must be a list of records"),
        ({"m": 1, "coalitions": [{"members": [0]}]},
         "coalition record {'members': [0]} needs 'members' and 'worth'"),
    ])
    def test_malformed_game_rejected(self, game, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.game_worth(game)

    def test_wrong_by_size_length(self):
        with pytest.raises(ValueError, match="list of 2"):
            cli.game_worth({"m": 2, "by_size": [1.0]})


class TestAverage:
    def test_single_outsider(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"m": 1, "by_size": [7]}))
        code, out, _ = run(capsys, "average", str(path))
        assert code == 0
        assert json.loads(out) == {"v_tilde": 7.0}

    def test_grand_coalition_prediction(self, capsys, game_file):
        code, out, _ = run(capsys, "average", game_file)
        assert code == 0
        assert json.loads(out)["v_tilde"] == pytest.approx(4 / 15, rel=1e-15)


class TestPlanes:
    def test_m3_exact_rows(self, capsys):
        code, out, _ = run(capsys, "planes", "--m", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_rows"][0] == ["3/5", "-1/5", "-1/15"]
        assert payload["exact_rows"][1] == ["-2/5", "3/10", "-1/15"]
        assert payload["exact_rows"][2] == ["-2/5", "-1/5", "4/15"]
        assert payload["rows"][0] == pytest.approx([0.6, -0.2, -1 / 15])
        assert not payload["degenerate"]

    def test_m1_degenerate(self, capsys):
        code, out, _ = run(capsys, "planes", "--m", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["degenerate"]
        assert payload["rows"] == [[0.0]]


@pytest.mark.parametrize("m", ["-1", "0"])
@pytest.mark.parametrize("command", ["planes", "stats"])
def test_closed_form_m_must_be_positive(capsys, command, m):
    code, out, err = run(capsys, command, "--m", m)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": 2, "message": "m must be positive"}


class TestSimulate:
    def test_jsonl_trajectory(self, capsys, game_file):
        code, out, _ = run(capsys, "simulate", game_file, "--mode", "weighted",
                           "--step", "0.1", "--horizon", "2", "--record-every", "5")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[0] == {"t": 0.0, "x": [0.4, 0.4, 0.2]}
        times = [line["t"] for line in lines]
        assert times == sorted(times)
        assert all(len(line["x"]) == 3 for line in lines)
        assert times[-1] == pytest.approx(2.0)

    def test_uniform_init(self, capsys, game_file):
        code, out, _ = run(capsys, "simulate", game_file, "--mode", "paper",
                           "--step", "0.1", "--horizon", "1", "--init", "uniform")
        assert code == 0
        first = json.loads(out.splitlines()[0])
        assert first["x"] == pytest.approx([1 / 3] * 3)

    @pytest.mark.parametrize("step, horizon", [("1e-300", "1e300"), ("1e-9", "1")])
    def test_sample_limit_exits_4(self, capsys, game_file, step, horizon):
        code, out, err = run(capsys, "simulate", game_file, "--step", step,
                             "--horizon", horizon)
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == 4
        assert "1000000 samples" in payload["message"]

    def test_weighted_output_is_the_same_on_every_python(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"n": 6, "s": 1, "by_size": [0.5, 1.25, -2, 3, 7.5]}))
        code, out, _ = run(capsys, "simulate", str(path), "--mode", "weighted", "--step", "0.05",
                           "--horizon", "50", "--record-every", "10")
        assert code == 0
        assert out.splitlines()[2] == (
            '{"t": 1.0, "x": [0.30454261091888124, 0.4601226512742169, 0.07586844068760688, '
            '0.10427745410247714, 0.05518884301681788]}')

    def test_bad_step_rejected(self, capsys, game_file):
        code, _, err = run(capsys, "simulate", game_file, "--step", "5",
                           "--horizon", "1")
        assert code == 2
        assert json.loads(err)["error"] == 2


class TestEnumerate:
    def test_m3_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["0 0 0", "0 0 1", "0 1 0", "0 1 1", "0 1 2"]

    def test_m8_lines_are_the_reference(self, capsys):
        code, out, err = run(capsys, "enumerate", "--m", "8")
        assert code == 0 and err == ""
        assert out == "".join(" ".join(map(str, labels)) + "\n" for labels in rgs(8))

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "enumerate", "--m", "13")
        assert code == 4
        payload = json.loads(err)
        assert payload["error"] == 4
        assert payload["message"] == "enumeration too large: m=13 exceeds the cap m=12"

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    def test_cap_checked_before_any_work(self, capsys, command):
        # B_5000 is far too large to build or print: the check must come first
        code, out, err = run(capsys, command, "--m", "5000")
        assert code == 4 and out == ""
        assert json.loads(err)["message"] == "enumeration too large: m=5000 exceeds the cap m=12"

    def test_cap_override(self, capsys):
        code, _, err = run(capsys, "enumerate", "--m", "4", "--cap", "3")
        assert code == 4

    @pytest.mark.parametrize("argv", [["enumerate", "--m", "3", "--cap", "-1"],
                                      ["enumerate", "--m", "3", "--cap", "0"],
                                      ["verify", "--m", "3", "--cap", "-1"]])
    def test_cap_below_one_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "must be a positive integer" in json.loads(err)["message"]

    def test_cap_below_one_from_environment_exits_2(self, capsys, monkeypatch):
        for raw in ("-1", "abc"):
            monkeypatch.setenv("COALITION_FORECAST_ENUM_CAP", raw)
            code, out, err = run(capsys, "enumerate", "--m", "3")
            assert code == 2 and out == ""
            message = json.loads(err)["message"]
            assert "COALITION_FORECAST_ENUM_CAP must be a positive integer" in message


class TestStats:
    def test_m4(self, capsys):
        code, out, _ = run(capsys, "stats", "--m", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["multiplicity"] == [20, 12, 4, 1]
        assert payload["choice_counts"] == [5, 6, 3, 1]

    def test_large_m_closed_form(self, capsys):
        # stats never enumerates, so far beyond the cap is fine
        code, out, _ = run(capsys, "stats", "--m", "30")
        assert code == 0
        payload = json.loads(out)
        assert payload["multiplicity"][-1] == 1
        assert len(payload["choice_counts"]) == 30


class TestVerify:
    def test_m4_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "4", "--trials", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["partitions_enumerated"] == 15

    def test_cap_exceeded_exits_4(self, capsys):
        code, _, err = run(capsys, "verify", "--m", "13", "--trials", "1")
        assert code == 4
        assert json.loads(err)["error"] == 4

    def test_trials_bound_exits_4(self, capsys):
        code, out, err = run(capsys, "verify", "--m", "3", "--trials", "1000001")
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": 4,
                                   "message": "1000001 trials exceed the bound of 1000000"}

    def test_mismatch_exits_5(self, capsys, monkeypatch):
        failing = VerificationReport(
            m=3, trials=1, seed=0, partitions_enumerated=4, bell_value=5,
            count_matches=False, multiplicity_matches=True,
            choice_counts_match=True, max_average_rel_err=0.0, averages_match=True,
        )
        monkeypatch.setattr("coalition_forecast.oracle.oracle_suite", lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify", "--m", "3")
        assert code == 5
        assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("argv, keys", [
    (["predict", "GAME"], ["m", "average_worth", "residuals", "distances", "argmin_set",
                           "chosen_size", "degenerate", "notes"]),
    (["verify", "--m", "3", "--trials", "5"],
     ["m", "trials", "seed", "partitions_enumerated", "bell_value", "count_matches",
      "multiplicity_matches", "choice_counts_match", "max_average_rel_err",
      "averages_match", "passed"]),
    (["stats", "--m", "3"], ["m", "multiplicity", "choice_counts"]),
], ids=["predict", "verify", "stats"])
def test_json_key_order_is_pinned(capsys, game_file, argv, keys):
    code, out, _ = run(capsys, *(game_file if arg == "GAME" else arg for arg in argv))
    assert code == 0
    assert list(json.loads(out)) == keys


def test_cli_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(coalition_forecast.__file__))
    probe = "import sys, coalition_forecast.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def _fresh_python(*argv: str) -> subprocess.CompletedProcess:
    """A new interpreter on this checkout's package, without site-packages (-S)."""
    src = os.path.dirname(os.path.dirname(coalition_forecast.__file__))
    return subprocess.run([sys.executable, "-S", "-W", "error", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)


PREDICTOR = {"combinatorics", "predictor", "worth"}  # predictor and what it imports


@pytest.mark.parametrize("argv, modules", [
    (["--help"], set()),
    (["stats", "--m", "3"], {"combinatorics"}),
    (["enumerate", "--m", "3"], {"combinatorics"}),
    (["planes", "--m", "3"], PREDICTOR),
    (["predict", "GAME"], PREDICTOR),
    (["average", "GAME"], PREDICTOR),
    (["simulate", "GAME", "--horizon", "1"], PREDICTOR | {"replicator"}),
    (["verify", "--m", "3", "--trials", "2"], PREDICTOR | {"oracle"}),
], ids=["help", "stats", "enumerate", "planes", "predict", "average", "simulate", "verify"])
def test_each_command_loads_only_the_modules_it_runs(game_file, argv, modules):
    probe = ("import json, sys\n"
             "from coalition_forecast.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(json.dumps([code, sorted(sys.modules)]))\n")
    done = _fresh_python("-c", probe, *(game_file if arg == "GAME" else arg for arg in argv))
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    package = {name for name in loaded if name.startswith("coalition_forecast")}
    assert package == {"coalition_forecast", "coalition_forecast.cli",
                       "coalition_forecast.errors"} | {f"coalition_forecast.{m}" for m in modules}
    assert ("fractions" in loaded) == (argv[0] == "planes")  # only exact_rows needs Fraction
    assert "typing" not in loaded


def test_console_script_target_runs():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["coalition-forecast"]
    module, _, function = target.partition(":")
    done = _fresh_python("-c", f"import sys; from {module} import {function}; "
                               f"sys.exit({function}(['--help']))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: coalition-forecast")


PUBLIC_NAMES = [
    "BellTable", "CharacteristicFunction", "DynamicsConfig", "EnumerationTooLarge",
    "HyperplaneSystem", "IntegrationError", "Mode", "OptimalStructureResult",
    "PartitionStats", "PredictionReport", "ReplicatorState", "RestPointReport",
    "SetPartition", "SymmetricWorth", "SymmetryViolation", "Trajectory",
    "VerificationReport", "average_worth", "brute_force_average",
    "brute_force_multiplicities", "build_bell_table", "characteristic_from_coalitions",
    "distances", "enumerate_partitions", "evaluate_planes", "hyperplane_system",
    "initial_frequencies", "integrate", "optimal_structure", "oracle_suite",
    "partition_stats", "per_capita_vector", "predict", "rest_point_check",
    "reduce_to_symmetric", "uniform_frequencies",
]


def test_every_public_name_resolves():
    assert coalition_forecast.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(coalition_forecast, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(PUBLIC_NAMES) <= set(dir(coalition_forecast))
    exec("from coalition_forecast import *", {})


@pytest.mark.parametrize("module, name", [
    ("worth", "SymmetryViolation"), ("combinatorics", "EnumerationTooLarge"),
    ("replicator", "IntegrationError"), ("replicator", "TooManySamples"),
])
def test_errors_keep_their_import_paths(module, name):
    from coalition_forecast import errors
    home = importlib.import_module(f"coalition_forecast.{module}")
    assert getattr(home, name) is getattr(errors, name)


def test_submodule_resolves_as_attribute(monkeypatch):
    monkeypatch.delattr(coalition_forecast, "oracle")  # as before its first import
    assert coalition_forecast.oracle is sys.modules["coalition_forecast.oracle"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match=r"^module 'coalition_forecast' has no attribute 'no_such_name'$"):
        coalition_forecast.no_such_name


class TestParserErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert json.loads(err)["error"] == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "planes")
        assert code == 2
        assert json.loads(err)["error"] == 2


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


INTEGERS = st.integers(-10 ** 18, 10 ** 18) | st.sampled_from([2 ** 1024, -2 ** 1024])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTEGERS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10, 10)


@st.composite
def game_files(draw, fault):
    """A valid game, or one broken by `fault`: arbitrary JSON, a bad count, or bad items."""
    if fault == "json":
        return draw(JSON_VALUES)
    kind = draw(st.sampled_from(["by_size", "coalitions"]))
    m = draw(st.integers(1, 9 if kind == "by_size" else 3))
    counts = draw(st.sampled_from([{"m": m}, {"n": m + 2, "s": 2}, {"m": m, "n": m + 2, "s": 2}]))
    if fault == "count":
        counts[draw(st.sampled_from(sorted(counts)))] = draw(JSON_VALUES)
    if kind == "by_size":
        items = draw(st.lists(NUMBERS, min_size=m, max_size=m))
        bad = JSON_VALUES
    else:
        by_size = draw(st.lists(NUMBERS, min_size=m, max_size=m))
        items = [{"members": [i for i in range(m) if mask >> i & 1],
                  "worth": by_size[mask.bit_count() - 1]} for mask in range(1, 1 << m)]
        members = st.lists(st.integers(-1, m) | JSON_VALUES, min_size=1, max_size=m) | JSON_VALUES
        bad = st.fixed_dictionaries({"members": members, "worth": NUMBERS | JSON_VALUES})
    for _ in range(draw(st.integers(1, 2)) if fault == "items" else 0):
        index = draw(st.integers(0, len(items)))  # replace an item, or insert one
        items[index:index + draw(st.integers(0, 1))] = [draw(bad)]
    return {**counts, kind: items}


@st.composite
def cli_calls(draw):
    """argv for every command at small sizes, with the game file to go with it.

    At most one thing is out of range or malformed: the game, or one option.
    """
    pick = lambda *values: draw(st.sampled_from(values))  # noqa: E731
    command = pick("predict", "average", "simulate", "planes", "stats", "enumerate", "verify")
    if command in ("planes", "stats"):
        return [command, "--m", str(draw(st.integers(-2, 9)))], None
    if command in ("enumerate", "verify"):
        argv = [command, "--m", str(draw(st.integers(-2, 8) | st.integers(13, 5000)))]
        argv += pick([], ["--cap", "-1"], ["--cap", "0"], ["--cap", "3"], ["--cap", "12"],
                     ["--cap", "x"])
        if command == "verify":
            argv += ["--trials", pick("1", "3", "0"), "--seed", str(draw(st.integers(-3, 3)))]
        return argv, None
    options = {"--tolerance": pick("1e-9", "0", "inf")}
    if command == "simulate":
        options.update({"--mode": pick("paper", "weighted"), "--init": pick("structure", "uniform"),
                        "--step": pick("0.1", "0.5"), "--horizon": pick("3", "20"),
                        "--record-every": pick("1", "4")})
    fault = pick(None, "json", "count", "items", "items", "option")
    if fault == "option":
        options[pick(*options)] = pick("-1", "0", "nan", "1e-300", "1e300", "x")
    argv = [command, "GAME", *(item for option in options.items() for item in option)]
    return argv, draw(game_files(fault))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(call=cli_calls())
def test_error_contract_holds_for_any_input(tmp_path_factory, call):
    """Every call ends in a documented exit code, with one JSON error line or strict JSON out."""
    argv, game = call
    if "GAME" in argv:
        path = tmp_path_factory.getbasetemp() / "fuzz-game.json"
        path.write_text(json.dumps(game))
        argv = [str(path) if arg == "GAME" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code in (2, 3, 4):
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        payload = _strict_json(lines[0])
        assert list(payload) == ["error", "message"]
        assert payload["error"] == code and isinstance(payload["message"], str)
    else:
        assert err.getvalue() == ""
        if argv[0] != "enumerate":
            for line in out.getvalue().splitlines():
                _strict_json(line)
