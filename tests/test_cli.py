"""CLI subcommands, JSON I/O, and exit codes."""

import contextlib
import copy
import hashlib
import importlib
import io
import json
import os
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coalition_forecast
from coalition_forecast import cli, combinatorics, oracle, worth
from coalition_forecast.errors import EnumerationTooLarge
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

    def test_tied_sizes_printed_as_a_sorted_list(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"m": 3, "by_size": [0, 0, 0]}))  # on every plane
        code, out, _ = run(capsys, "predict", str(path))
        assert code == 0
        assert json.loads(out)["argmin_set"] == [1, 2, 3]

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

    def test_non_utf8_file_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{"m": 1, "by_size": [1]}')
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["message"].startswith(f"invalid JSON in {path}: 'utf-8' codec")

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

    def test_empty_coalition_exits_2(self, capsys, tmp_path):
        # one record for m = 1 passes the count check; its empty members are what fail
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"m": 1, "coalitions": [{"members": [], "worth": 0}]}))
        code, out, err = run(capsys, "predict", str(path))
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": 2, "message": "coalition must be non-empty"}

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

    def test_symmetry_gap_over_the_exact_bound_exits_3(self, capsys, tmp_path):
        # the gap is exact, and the float product 0.3 * 3.736744210543126 rounds up to it,
        # so the float rule passed a pair whose exact gap is over the bound
        game = {"m": 2, "coalitions": [
            {"members": [0], "worth": -3.736744210543126},
            {"members": [1], "worth": -2.615720947380188}, {"members": [0, 1], "worth": 1.0},
        ]}
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "predict", str(path), "--tolerance", "0.3")
        assert code == 3 and out == ""
        assert json.loads(err)["message"].startswith("symmetry violation")

    def test_symmetry_gap_beyond_the_float_range_exits_3(self, capsys, tmp_path):
        # the exact gap, 3.4e308, is past the float maximum: the message names no inf
        game = {"m": 2, "coalitions": [
            {"members": [0], "worth": 1.7e308}, {"members": [1], "worth": -1.7e308},
            {"members": [0, 1], "worth": 1.0},
        ]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "predict", str(path))
        assert code == 3 and out == ""
        message = json.loads(err)["message"]
        assert "inf" not in message
        assert message.startswith("symmetry violation")
        assert message.endswith("(gap beyond the float range)")


class TestGameInput:
    def test_m_and_ns_consistent(self):
        assert worth.game_worth({"n": 5, "s": 2, "m": 3, "by_size": [1, 2, 3]}).m == 3

    def test_m_inconsistent_with_ns(self):
        with pytest.raises(ValueError, match="inconsistent"):
            worth.game_worth({"n": 5, "s": 1, "m": 3, "by_size": [1, 2, 3]})

    def test_n_without_s(self):
        with pytest.raises(ValueError, match="together"):
            worth.game_worth({"n": 5, "by_size": [1]})

    def test_n_not_greater_than_s(self):
        with pytest.raises(ValueError, match="n > s"):
            worth.game_worth({"n": 2, "s": 2, "by_size": []})

    def test_neither_m_nor_ns(self):
        with pytest.raises(ValueError, match="provide"):
            worth.game_worth({"by_size": [1]})

    def test_both_worth_schemas_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            worth.game_worth({"m": 1, "by_size": [1], "coalitions": []})

    @pytest.mark.parametrize("game, message", [
        ({"m": 0, "by_size": []}, "'m' must be positive, got 0"),
        ({"m": 1, "coalitions": {"members": [0], "worth": 1}},
         "'coalitions' must be a list of records"),
        ({"m": 1, "coalitions": [{"members": [0]}]},
         "coalition record {'members': [0]} needs 'members' and 'worth'"),
    ])
    def test_malformed_game_rejected(self, game, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            worth.game_worth(game)

    def test_wrong_by_size_length(self):
        with pytest.raises(ValueError, match="list of 2"):
            worth.game_worth({"m": 2, "by_size": [1.0]})


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


@pytest.mark.parametrize("m", [1501, 10 ** 9])
@pytest.mark.parametrize("command", ["planes", "stats"])
def test_closed_form_bound_exits_4_at_once(capsys, command, m):
    code, out, err = run(capsys, command, "--m", str(m))
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": 4, "message": f"closed form too large: m={m} "
                                                      f"exceeds the bound m=1500"}


def test_planes_bound_exits_4_before_any_row(capsys):
    code, out, err = run(capsys, "planes", "--m", "201")
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": 4, "message": "hyperplane system too large: m=201 "
                                                      "exceeds the bound m=200"}


def test_closed_form_bound_covers_game_files(capsys, tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"m": 1501, "by_size": [1.0] * 1501}))
    code, out, err = run(capsys, "predict", str(path))
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": 4, "message": "closed form too large: m=1501 "
                                                      "exceeds the bound m=1500"}


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

    def test_values_limit_exits_4(self, capsys, tmp_path):
        path = tmp_path / "m20.json"
        path.write_text(json.dumps({"m": 20, "by_size": [0] * 20}))
        code, out, err = run(capsys, "simulate", str(path), "--step", "1",
                             "--horizon", "500000")
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": 4, "message": "m=20 times 500001 recorded states "
                                                          "exceeds the bound of 10000010 values"}

    def test_weighted_output_is_the_same_on_every_python(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"n": 6, "s": 1, "by_size": [0.5, 1.25, -2, 3, 7.5]}))
        code, out, _ = run(capsys, "simulate", str(path), "--mode", "weighted", "--step", "0.05",
                           "--horizon", "50", "--record-every", "10")
        assert code == 0
        assert out.splitlines()[2] == (
            '{"t": 1.0, "x": [0.30454261091888124, 0.4601226512742169, 0.07586844068760688, '
            '0.10427745410247714, 0.05518884301681788]}')

    def test_last_sample_time_beyond_float_range_names_horizon_and_step(self, capsys, tmp_path):
        # every rate is 0 on this game, so the growth is not at fault
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"m": 3, "by_size": [2, 4, 6]}))
        code, out, err = run(capsys, "simulate", str(path), "--horizon", "1.7e308",
                             "--step", "1.02e308")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": 2, "message": "horizon 1.7e+308 at step 1.02e+308 "
                                                          "ends beyond the float range"}

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

    @pytest.mark.parametrize("m", range(1, 8))
    def test_small_m_lines_are_the_reference(self, capsys, m):
        code, out, err = run(capsys, "enumerate", "--m", str(m))
        assert code == 0 and err == ""
        assert out == "".join(" ".join(map(str, labels)) + "\n" for labels in rgs(m))

    # sha256 of the stdout of `enumerate --m m`, pinned past the reference comparisons above
    STDOUT_SHA256 = {
        1: "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        2: "5e98722db3069229cffda6286921f5b525d68038fa14d9f90f91ac9a8d639d1e",
        3: "a6821d05e38615adfe1dc4f2e0cfec5efcfdb6753b666990a4ca4018cad962c2",
        4: "99778f2b01d4d4c72f4d96936098ff9101d4cbee0e53f95eecb81fe55daa0800",
        5: "d2e6f7866aeb497ce6ec2b7b3bfd5221a492da5d5827e1d201de9bcf3859c7ee",
        6: "9d9ac7515e2d97f98e6deefc1d60104666ad37b2f6492a85f08c970e4b465e7a",
        7: "2acd36c08bca9c689912b2fc591864c1ec6dd1cad0a15be1ed79ba6dac0cb530",
        8: "5e32d0b49ac2413af9fd509833005548df06666a68247f9c41836702e61b77f3",
        9: "12d7afcc321cf623012f327bf15d2fae97cb90ffccc5400c01670ad5f7429516",
        10: "80286a148e0e010437c20b49bc81e14b83d1b9e50f6ee1413abc7c2800fc6ae4",
    }

    @pytest.mark.parametrize("m", range(1, 11))
    def test_stdout_sha256_is_pinned(self, capsys, m):
        code, out, err = run(capsys, "enumerate", "--m", str(m))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[m]

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

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    def test_cap_option_is_gone(self, capsys, command):
        code, out, err = run(capsys, command, "--m", "3", "--cap", "12")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --cap 12" in json.loads(err)["message"]

    def test_cap_ignores_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("COALITION_FORECAST_ENUM_CAP", "3")
        code, out, err = run(capsys, "enumerate", "--m", "4")
        assert code == 0 and err == ""
        assert out == "".join(" ".join(map(str, labels)) + "\n" for labels in rgs(4))
        assert len(out.splitlines()) == 15


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


_REFUSING_ENTRIES = {  # every enumerating entry point, as a call on m alone
    "enumerate_partitions": combinatorics.enumerate_partitions,
    "brute_force_average": lambda m: oracle.brute_force_average(
        worth.SymmetricWorth(m=m, by_size=(0.0,) * m)),
    "brute_force_multiplicities": oracle.brute_force_multiplicities,
    "optimal_structure": lambda m: oracle.optimal_structure(
        worth.CharacteristicFunction(m=m, entries=dict.fromkeys(range(1, 1 << m), 0.0))),
    "oracle_suite": lambda m: oracle.oracle_suite(m, trials=1),
    "enumerate": "enumerate",
    "verify": "verify",
}


@pytest.mark.parametrize("entry, m", [
    *((entry, 13) for entry in _REFUSING_ENTRIES),
    # a worth vector or coalition table of 10^9 outsiders cannot be built
    *((entry, 10 ** 9) for entry in _REFUSING_ENTRIES
      if entry not in ("brute_force_average", "optimal_structure")),
])
def test_every_enumerating_entry_refuses_m_past_the_bound_before_any_walk(
        capsys, monkeypatch, entry, m):
    def walk(m):
        raise AssertionError(f"walked at m={m}")

    monkeypatch.setattr(combinatorics, "_walk", walk)
    call = _REFUSING_ENTRIES[entry]
    if isinstance(call, str):
        code, out, err = run(capsys, call, "--m", str(m))
        assert code == 4 and out == ""
        message = json.loads(err)["message"]
    else:
        with pytest.raises(EnumerationTooLarge) as refused:
            call(m)
        message = str(refused.value)
    assert message == f"enumeration too large: m={m} exceeds the cap m=12"


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


@pytest.mark.parametrize("argv", [
    ["predict", "GAME"], ["average", "GAME"], ["simulate", "GAME"], ["planes", "--m", "3"],
    ["stats", "--m", "3"], ["enumerate", "--m", "11"], ["verify", "--m", "3", "--trials", "2"],
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_0_quietly(game_file, argv):
    """A reader that closed stdout before the run starts gets exit 0 and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(coalition_forecast.__file__))
    try:
        done = subprocess.run([sys.executable, "-m", "coalition_forecast.cli",
                               *(game_file if arg == "GAME" else arg for arg in argv)],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr.decode()) == (0, "")


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
    assert "dataclasses" not in loaded and "inspect" not in loaded  # records are namedtuples


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
    "CharacteristicFunction", "DynamicsConfig", "EnumerationTooLarge",
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
    ("combinatorics", "ClosedFormTooLarge"),
    ("replicator", "IntegrationError"), ("replicator", "TooManySamples"),
])
def test_errors_keep_their_import_paths(module, name):
    from coalition_forecast import errors
    home = importlib.import_module(f"coalition_forecast.{module}")
    assert getattr(home, name) is getattr(errors, name)


def _record_cases():
    """One record of each type; for the four built from caller input, a field and a bad value."""
    cf = coalition_forecast
    bell = cf.build_bell_table(3)
    worth = cf.SymmetricWorth(m=3, by_size=(0.0, 1.0, 1.0))
    game = cf.CharacteristicFunction(m=1, entries={1: 2.0})
    start = cf.initial_frequencies(3, bell)
    config = cf.DynamicsConfig(horizon=0.1)
    trajectory = cf.integrate(start, worth, config, bell)
    cases = [
        (worth, "by_size", (0.0, float("nan"), 1.0)), (game, "entries", {2: 2.0}),
        (start, "time", -1.0), (config, "step_size", -1.0),
        (next(cf.enumerate_partitions(3)), None, None),
        (cf.partition_stats(3, bell), None, None), (cf.hyperplane_system(3, bell), None, None),
        (cf.predict(worth, bell), None, None), (trajectory, None, None),
        (cf.rest_point_check(trajectory.terminal, worth, config.mode, bell, 1e-9), None, None),
        (cf.optimal_structure(game), None, None), (cf.oracle_suite(3, trials=1), None, None),
    ]
    return [pytest.param(*case, id=type(case[0]).__name__) for case in cases]


@pytest.mark.parametrize("record, field, bad", _record_cases())
def test_records_keep_their_checks_and_refuse_change(record, field, bad):
    if field is not None:  # _replace builds through the constructor's checks
        with pytest.raises(ValueError) as built:
            type(record)(**{**record._asdict(), field: bad})
        with pytest.raises(ValueError, match=f"^{re.escape(str(built.value))}$"):
            record._replace(**{field: bad})
    for name in (*record._fields, "unlisted"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("record, field, bad", _record_cases())
def test_records_survive_pickle_and_copy(record, field, bad):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record  # a namedtuple: equal fields in order


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
