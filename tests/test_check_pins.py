"""``tools/check_pins``: when one benchmark run counts as passed, and which
command lines start no run."""
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "check_pins", Path(__file__).resolve().parent.parent / "tools" / "check_pins.py")
check_pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_pins)
verdict = check_pins.verdict


def result(**fields):
    return json.dumps({"workload": "sweep", "attempted": 12, "failed": 0, **fields})


def test_pass():
    assert verdict(0, "progress\n" + result(correct=True) + "\n") is None


def test_non_zero_exit():
    assert verdict(1, result(correct=True)) == "exit 1"


def test_correct_false():
    why = verdict(0, result(correct=False, failed=3))
    assert why == '"correct": false, 3 of 12 operations failed'


def test_correct_must_be_true_not_truthy():
    assert verdict(0, result(correct=1)).startswith('"correct": 1,')


@pytest.mark.parametrize("stdout", ["", "\n\n", "one line of progress\n",
                                    json.dumps({"workload": "sweep"}), "[true]"])
def test_missing_result_line(stdout):
    assert verdict(0, stdout) == "exit 0, no result line"


def test_malformed_json_line():
    assert verdict(2, result(correct=True)[:-5] + "\n") == "exit 2, no result line"


def test_only_the_last_line_counts():
    stdout = result(correct=True) + "\n" + "Traceback (most recent call last):\n"
    assert verdict(0, stdout) == "exit 0, no result line"


def _no_runs(*args, **kwargs):
    raise AssertionError("a benchmark run was started")


def test_help_prints_usage_and_starts_no_run(monkeypatch, capsys):
    monkeypatch.setattr(check_pins.subprocess, "run", _no_runs)
    with pytest.raises(SystemExit) as done:
        check_pins.main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


@pytest.mark.parametrize("argv", [["--seed", "3"], ["strategy"], ["-x"]])
def test_any_argument_exits_2_and_starts_no_run(monkeypatch, capsys, argv):
    monkeypatch.setattr(check_pins.subprocess, "run", _no_runs)
    with pytest.raises(SystemExit) as done:
        check_pins.main(argv)
    assert done.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
