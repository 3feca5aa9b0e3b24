"""Measure the peak resident set size and the wall time of one command.

    python3 tools/own_peak.py COMMAND [ARG ...]

Runs COMMAND twice, one run after the other: first with the environment as
it is, then with NUMPY_MADVISE_HUGEPAGE=0. numpy asks the kernel for huge
pages on arrays of 4 MB or more, so where transparent huge pages are in
``madvise`` mode, the heap layout alone can move a peak by several MB; the
second run reads the peak without that request. Prints one line per run:

    <setting>: peak <MB> MB, wall <seconds> s, exit <code>

The peak is the ``ru_maxrss`` that ``os.wait4`` returns for the command,
read on Linux, where it counts KiB. Linux carries the peak of the process
that starts a command over into the command's own, so this script imports
no more than it needs, and never numpy. Exits 1 if a run exits non-zero,
2 if the command cannot be started, else 0.
"""
from __future__ import annotations

import os
import shutil
import sys
import time

SETTINGS = (("as is", {}), ("NUMPY_MADVISE_HUGEPAGE=0", {"NUMPY_MADVISE_HUGEPAGE": "0"}))


def measure(argv, env) -> tuple[float, float, int]:
    """(peak MB, wall seconds, exit code) of one run of ``argv`` under ``env``."""
    path = argv[0] if os.sep in argv[0] else shutil.which(argv[0]) or argv[0]
    t0 = time.perf_counter()
    pid = os.posix_spawn(path, argv, env)
    _, status, usage = os.wait4(pid, 0)
    return usage.ru_maxrss / 1024.0, time.perf_counter() - t0, os.waitstatus_to_exitcode(status)


def main(argv) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stdout if argv else sys.stderr)
        return 0 if argv else 2
    failed = False
    for name, extra in SETTINGS:
        try:
            peak, wall, code = measure(argv, {**os.environ, **extra})
        except OSError as e:
            print(f"cannot start {argv[0]}: {e.strerror}", file=sys.stderr)
            return 2
        print(f"{name}: peak {peak:.1f} MB, wall {wall:.2f} s, exit {code}", flush=True)
        failed |= code != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
