"""``tools/output_digests``: the same checkout gives the same digests, under
the keys of every benchmark output, and command lines that digest nothing."""
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_digests",
                                               ROOT / "tools" / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)

SRE_FILES = {"corpus", "model", "enroll", "test", "key", "scores", "report"}


def test_two_toy_runs_agree_on_every_output():
    first = output_digests.digests(ROOT, toy=True)
    assert output_digests.digests(ROOT, toy=True) == first
    assert {k for k in first if k.startswith("strategy/")} == {
        f"strategy/{s}/{j}" for s in ("cosine", "LT", "GT", "Pool") for j in range(5)}
    sweep = [k for k in first if k.startswith("sweep/")]
    assert len(sweep) == 12  # 3 x 2 cells, 2 repeats each
    assert {k for k in first if k.startswith("sre_cli/")} == {
        f"sre_cli/{f}" for f in SRE_FILES}
    assert len(first) == 20 + 12 + len(SRE_FILES)
    for key, value in first.items():
        if key.startswith("sre_cli/"):
            assert re.fullmatch("[0-9a-f]{64}", value), key
        else:
            assert 0.0 <= float.fromhex(value) <= 1.0, key


def _no_digests(*args, **kwargs):
    raise AssertionError("a digest was computed")


def test_help_prints_usage_and_digests_nothing(monkeypatch, capsys):
    monkeypatch.setattr(output_digests, "digests", _no_digests)
    with pytest.raises(SystemExit) as done:
        output_digests.main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


@pytest.mark.parametrize("argv", [[], [".", "."], ["--toy", "."], ["-x"]])
def test_anything_but_one_root_exits_2(monkeypatch, argv):
    monkeypatch.setattr(output_digests, "digests", _no_digests)
    with pytest.raises(SystemExit) as done:
        output_digests.main(argv)
    assert done.value.code == 2
