#!/usr/bin/env python3
"""Peak RSS of each verify suite, each run in a fresh interpreter.

Runs every named suite (all of them by default) RUNS times, round by round,
each time as a new `python -m kappasets verify --suite S` child that imports
this tree's src/ and writes its report under a temporary directory. The
child's peak RSS is its ru_maxrss, read with os.wait4. Prints one line per
suite with the median and the largest of its peaks, in KB. The benchmark's
verify peak_rss_mb is the largest peak over all its suite children, so a
change in one suite's memory shows here first.

With --against OTHER_TREE each suite's children alternate one by one
between this tree and OTHER_TREE, which goes first alternating too, and
each tree's median and max are printed on a line of its own. A child's
peak drifts with the machine's state over minutes, so two trees compare
only in one such run, not in two runs one after the other.

    python scripts/suite_peaks.py [SUITE ...] [--against OTHER_TREE]

Exits 1 when a child exits nonzero, 2 on an unknown suite.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 5

sys.path.insert(0, str(ROOT / "src"))
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


def tree_env(tree: Path) -> dict:
    """The environment of a child that imports tree's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    return env


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("suites", nargs="*", metavar="SUITE")
    ap.add_argument("--against", type=Path, metavar="OTHER_TREE")
    args = ap.parse_args(argv)
    unknown = [s for s in args.suites if s not in SUITES]
    if unknown:
        ap.error(f"unknown suite {unknown[0]!r}; choose from {', '.join(SUITES)}")
    trees = [ROOT] if args.against is None else [ROOT, args.against.resolve()]
    if not (trees[-1] / "src" / "kappasets").is_dir():
        ap.error(f"{trees[-1]} holds no src/kappasets")
    envs = [tree_env(tree) for tree in trees]
    peaks = {s: [[] for _ in trees] for s in args.suites or SUITES}
    for r in range(RUNS):
        for suite, got in peaks.items():
            for t in range(len(trees)) if r % 2 == 0 else reversed(range(len(trees))):
                got[t].append(peak_kb(suite, envs[t]))
    width = max(map(len, peaks))
    for suite, got in peaks.items():
        for tree, kb in zip(trees, got):
            label = f"  {tree}" if args.against else ""
            print(f"{suite:<{width}}{label}  median {statistics.median(kb):,.0f} KB  max {max(kb):,} KB")


if __name__ == "__main__":
    main()
