#!/usr/bin/env python3
"""Time two source trees on the same benchmark commands, interleaved.

Each tree runs in one long-lived interpreter of its own, which imports that
tree's src/. The child reads one JSON argv list per line on stdin, runs
kappasets.cli.main on it with a temporary --out-dir, and answers with the
exit code and the command's wall time. The parent builds one seeded cycle
of the workload from this tree's perfbench/workloads.py (read, never
changed) and sends each command of it to both children, one after the
other, alternating which tree goes first, for R rounds. It prints each
tree's p50, mean and p95 per command over all rounds, in ms, and in how
many rounds the new tree took less time in total. Times are raw
perf_counter readings, not scaled to nominal machine speed as the
benchmark's are, so only the two trees' readings in one run compare.

    python scripts/ab_cycle.py OLD_TREE NEW_TREE [--workload classify|search] [--seed N] [--rounds R]

Exits 1 when a command exits nonzero in either tree, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Runs in a tree's own interpreter, argv[1] the tree: one reply line per
#: argv line, "<exit code> <seconds>".
CHILD = """
import contextlib, io, json, shutil, sys, tempfile, time
sys.path.insert(0, sys.argv[1] + "/src")
from kappasets import cli
scratch = tempfile.mkdtemp()
try:
    for line in sys.stdin:
        argv = [*json.loads(line), "--out-dir", scratch + "/out"]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            took = time.perf_counter() - t0
        shutil.rmtree(scratch + "/out", ignore_errors=True)
        print(code, took, flush=True)
finally:
    shutil.rmtree(scratch, ignore_errors=True)
"""


class Child:
    """One tree's interpreter, answering one command at a time."""

    def __init__(self, tree: Path):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(tree)], cwd=tree, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str]) -> tuple[int, float]:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 2:
            raise RuntimeError(f"child for {self.proc.args[-1]} stopped on {argv}")
        return int(reply[0]), float(reply[1])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def cycle(workload: str, seed: int) -> list[list[str]]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    return workloads.build(workload, seed)


def summary(times: list[float]) -> str:
    ordered = sorted(times)
    p95 = ordered[max(0, -(-95 * len(ordered) // 100) - 1)]
    return f"p50 {statistics.median(ordered) * 1e3:.3f} ms  mean {statistics.fmean(ordered) * 1e3:.3f} ms  p95 {p95 * 1e3:.3f} ms"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", choices=("classify", "search"), default="classify")
    ap.add_argument("--seed", type=int, default=3000)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    trees = [args.old.resolve(), args.new.resolve()]
    for tree in trees:
        if not (tree / "src" / "kappasets").is_dir():
            ap.error(f"{tree} holds no src/kappasets")
    if args.rounds < 1:
        ap.error(f"--rounds must be >= 1, got {args.rounds}")
    commands = cycle(args.workload, args.seed)
    children = [Child(tree) for tree in trees]
    times: list[list[float]] = [[], []]
    won = 0
    try:
        for r in range(args.rounds):
            totals = [0.0, 0.0]
            for i, command in enumerate(commands):
                for t in (0, 1) if (r + i) % 2 == 0 else (1, 0):
                    code, took = children[t].run(command)
                    if code:
                        print(f"error: {' '.join(command)} exited {code} in {trees[t]}", file=sys.stderr)
                        return 1
                    times[t].append(took)
                    totals[t] += took
            won += totals[1] < totals[0]
    finally:
        for child in children:
            child.close()
    print(f"{args.workload}, seed {args.seed}: {len(commands)} commands x {args.rounds} rounds")
    for name, got in zip(("old", "new"), times):
        print(f"{name}  {summary(got)}")
    print(f"new tree faster in {won} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
