"""The benchmark's forecast check against a report whose chosen_size is wrong.

The wrong report is built with the record API (`_replace`), so each failure the
loop records is the check's own message, never an error raised while building it.
"""

import importlib
from pathlib import Path

import coalition_forecast

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_wrong_chosen_size_fails_the_forecast_check(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    inprocess, loop, tracing = map(importlib.import_module, ("inprocess", "loop", "tracing"))
    real = coalition_forecast.predict

    def off_by_one(point, bell, *args):
        report = real(point, bell, *args)
        return report._replace(chosen_size=report.chosen_size % point.m + 1)

    monkeypatch.setattr(coalition_forecast, "predict", off_by_one)
    result = loop.run_loop(inprocess, "forecast", 5, 0, tracing.NullTracer())
    # every predict and coalitions request is wrong; the planes requests are not
    assert len(result["latencies"]) == 27
    messages = [failure["message"] for failure in result["failures"]]
    assert len(messages) == 24
    assert all(message.startswith("chosen_size ") for message in messages), messages[0]
