#!/usr/bin/env python3
"""Peak RSS of each verify suite, each run in a fresh interpreter.

Runs every named suite (all of them by default) RUNS times, round by round,
each time as a new `python -m kappasets verify --suite S` child that imports
this tree's src/ and writes its report under a temporary directory. The
child's peak RSS is its ru_maxrss, read with os.wait4. Prints one line per
suite with the median and the largest of its peaks, in KB. The benchmark's
verify peak_rss_mb is the largest peak over all its suite children, so a
change in one suite's memory shows here first.

    python scripts/suite_peaks.py [SUITE ...]

Exits 1 when a child exits nonzero, 2 on an unknown suite.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = 5

sys.path.insert(0, str(SRC))
from kappasets.suites import SUITES  # noqa: E402


def peak_kb(suite: str, env: dict) -> int:
    """ru_maxrss, in KB, of one fresh verify child of suite."""
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "kappasets", "verify", "--suite", suite, "--out-dir", out]
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"verify --suite {suite} exited {proc.returncode}")
    return usage.ru_maxrss


def main(suites: list[str]) -> None:
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        print(f"error: unknown suite {unknown[0]!r}; choose from {', '.join(SUITES)}", file=sys.stderr)
        sys.exit(2)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    peaks: dict[str, list[int]] = {s: [] for s in suites or SUITES}
    for _ in range(RUNS):
        for suite, got in peaks.items():
            got.append(peak_kb(suite, env))
    width = max(map(len, peaks))
    for suite, got in peaks.items():
        print(f"{suite:<{width}}  median {statistics.median(got):,.0f} KB  max {max(got):,} KB")


if __name__ == "__main__":
    main(sys.argv[1:])
