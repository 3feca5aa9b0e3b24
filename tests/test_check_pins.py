"""``tools/check_pins.verdict``: when one benchmark run counts as passed."""
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
