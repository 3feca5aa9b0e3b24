"""``tools/own_peak``: a command's own peak RSS and wall time, with and
without numpy's huge-page advice."""
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "own_peak.py"


def own_peak(*command):
    """(exit code, [(setting, peak MB, exit code)]) of one tool run."""
    out = subprocess.run([sys.executable, str(TOOL), *command], stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=120)
    runs = re.findall(r"^(.+): peak ([0-9.]+) MB, wall [0-9.]+ s, exit (-?\d+)$",
                      out.stdout, re.M)
    return out.returncode, [(name, float(peak), int(code)) for name, peak, code in runs]


def test_a_child_that_touches_200_mb_reads_at_least_200_mb():
    code, runs = own_peak(sys.executable, "-c", "b = b'x' * (200 << 20)")
    assert code == 0
    assert [name for name, _, _ in runs] == ["as is", "NUMPY_MADVISE_HUGEPAGE=0"]
    assert all(peak >= 200 for _, peak, _ in runs)


def test_an_empty_interpreter_reads_under_40_mb():
    code, runs = own_peak(sys.executable, "-c", "pass")
    assert code == 0 and len(runs) == 2
    assert all(peak < 40 for _, peak, _ in runs)


def test_the_second_run_turns_the_advice_off():
    check = "import os, sys; sys.exit(os.environ.get('NUMPY_MADVISE_HUGEPAGE') == '0')"
    code, runs = own_peak(sys.executable, "-c", check)
    assert code == 1
    assert [exit_code for _, _, exit_code in runs] == [0, 1]


def test_imports_no_numpy():
    code = (f"import sys; sys.path.insert(0, {str(TOOL.parent)!r}); import own_peak; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout == "False\n"
