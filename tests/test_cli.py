"""CLI subcommands, JSON I/O, and exit codes."""

import json

import pytest

from coalition_forecast import cli
from coalition_forecast.oracle import VerificationReport


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
        game = cli.GameInput.from_dict({"n": 5, "s": 2, "m": 3, "by_size": [1, 2, 3]})
        assert game.m == 3

    def test_m_inconsistent_with_ns(self):
        with pytest.raises(cli.InputError, match="inconsistent"):
            cli.GameInput.from_dict({"n": 5, "s": 1, "m": 3, "by_size": [1, 2, 3]})

    def test_n_without_s(self):
        with pytest.raises(cli.InputError, match="together"):
            cli.GameInput.from_dict({"n": 5, "by_size": [1]})

    def test_n_not_greater_than_s(self):
        with pytest.raises(cli.InputError, match="n > s"):
            cli.GameInput.from_dict({"n": 2, "s": 2, "by_size": []})

    def test_neither_m_nor_ns(self):
        with pytest.raises(cli.InputError, match="provide"):
            cli.GameInput.from_dict({"by_size": [1]})

    def test_both_worth_schemas_rejected(self):
        with pytest.raises(cli.InputError, match="exactly one"):
            cli.GameInput.from_dict({"m": 1, "by_size": [1], "coalitions": []})

    def test_wrong_by_size_length(self):
        with pytest.raises(cli.InputError, match="list of 2"):
            cli.GameInput.from_dict({"m": 2, "by_size": [1.0]})


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

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "enumerate", "--m", "13")
        assert code == 4
        payload = json.loads(err)
        assert payload["error"] == 4
        assert "27644437" in payload["message"]

    def test_cap_override(self, capsys):
        code, _, err = run(capsys, "enumerate", "--m", "4", "--cap", "3")
        assert code == 4


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

    def test_mismatch_exits_5(self, capsys, monkeypatch):
        failing = VerificationReport(
            m=3, trials=1, seed=0, partitions_enumerated=4, bell_value=5,
            count_matches=False, multiplicity_matches=True,
            choice_counts_match=True, max_average_rel_err=0.0, averages_match=True,
        )
        monkeypatch.setattr(cli, "oracle_suite", lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify", "--m", "3")
        assert code == 5
        assert json.loads(out)["passed"] is False


class TestParserErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert json.loads(err)["error"] == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "planes")
        assert code == 2
        assert json.loads(err)["error"] == 2
