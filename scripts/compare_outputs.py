#!/usr/bin/env python3
"""Compare what two source trees print for the benchmark's commands.

Each tree runs, in one interpreter of its own, every command that its
perfbench/workloads.py lists in command_space for the chosen workloads
(classify, search and verify by default, which covers each verify suite).
The two runs are compared command by command: the exit code and the report
text, node counts included. The lines that name the run and not the
result are left out: "command:" (it echoes the output directory),
"content-hash:" (it hashes that echo) and "report written to". With
--ignore-nodes the claims' "nodes:" lines are left out too, so a change
that moves only node counts compares equal, and each tree's node total per
workload is printed, with how many claims' node counts rose and how many
fell from the old tree to the new.

    python scripts/compare_outputs.py OLD_TREE NEW_TREE [--workloads search,verify] [--ignore-nodes]

Exits 0 when the trees agree on every command, 1 when any differs (the
first few differences are printed), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("classify", "search", "verify")
IGNORED = ("command:", "content-hash:", "report written to")
NODES = "nodes:"
SHOWN_DIFFS = 5

#: Runs in a tree's own interpreter: argv is the tree and the workloads; it
#: prints one JSON list of [workload, argv, exit code, stdout].
CHILD = """
import contextlib, io, json, shutil, sys, tempfile
tree, workloads = sys.argv[1], sys.argv[2].split(",")
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
import workloads as catalogue
from kappasets import cli
out = []
scratch = tempfile.mkdtemp()
try:
    for workload in workloads:
        for argv in catalogue.command_space(workload):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = cli.main([*argv, "--out-dir", scratch + "/out"])
            shutil.rmtree(scratch + "/out", ignore_errors=True)
            out.append([workload, argv, code, text.getvalue()])
finally:
    shutil.rmtree(scratch, ignore_errors=True)
json.dump(out, sys.stdout)
"""


def start(tree: Path, workloads: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-c", CHILD, str(tree), ",".join(workloads)]
    return subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)


def report(stdout: str, ignore_nodes: bool = False) -> list[str]:
    ignored = (*IGNORED, NODES) if ignore_nodes else IGNORED
    return [line for line in stdout.splitlines() if not line.startswith(ignored)]


def claim_nodes(stdout: str) -> list[int]:
    """The node count of each claim in one report, in order."""
    return [int(line[len(NODES):]) for line in stdout.splitlines() if line.startswith(NODES)]


def node_totals(runs: list) -> dict[str, int]:
    """The nodes the claims of each workload's commands report, summed."""
    totals: dict[str, int] = {}
    for workload, _, _, stdout in runs:
        totals[workload] = totals.get(workload, 0) + sum(claim_nodes(stdout))
    return totals


def node_moves(old: list, new: list) -> dict[str, tuple[int, int]]:
    """Per workload, how many claims report more nodes in new than in old,
    and how many fewer, the claims of each command taken in order."""
    moves: dict[str, tuple[int, int]] = {}
    for (workload, _, _, out_a), (_, _, _, out_b) in zip(old, new):
        pairs = list(zip(claim_nodes(out_a), claim_nodes(out_b)))
        rose, fell = moves.get(workload, (0, 0))
        moves[workload] = (rose + sum(b > a for a, b in pairs), fell + sum(b < a for a, b in pairs))
    return moves


def differences(old: list, new: list, ignore_nodes: bool = False) -> list[str]:
    """One text block per command whose code or report differs."""
    if [r[:2] for r in old] != [r[:2] for r in new]:
        return ["the two trees list different commands"]
    found = []
    for (workload, argv, code_a, out_a), (_, _, code_b, out_b) in zip(old, new):
        lines_a, lines_b = report(out_a, ignore_nodes), report(out_b, ignore_nodes)
        if (code_a, lines_a) != (code_b, lines_b):
            head = f"{workload}: {' '.join(argv)} (exit {code_a} -> {code_b})"
            diff = difflib.unified_diff(lines_a, lines_b, "old", "new", lineterm="", n=1)
            found.append("\n".join([head, *diff]))
    return found


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--ignore-nodes", action="store_true", help="leave the claims' node counts out")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    bad = [w for w in workloads if w not in WORKLOADS]
    if bad:
        p.error(f"unknown workload {bad[0]!r}; choose from {', '.join(WORKLOADS)}")
    # absolute, since each run's interpreter starts in its tree
    trees = (args.old.resolve(), args.new.resolve())
    procs = [start(tree, workloads) for tree in trees]
    outs = [proc.communicate()[0] for proc in procs]
    for proc, tree in zip(procs, trees):
        if proc.returncode != 0:
            raise SystemExit(f"error: the run in {tree} exited {proc.returncode}")
    old, new = map(json.loads, outs)
    found = differences(old, new, args.ignore_nodes)
    for block in found[:SHOWN_DIFFS]:
        print(block)
    if args.ignore_nodes:
        for tree, runs in zip(trees, (old, new)):
            totals = ", ".join(f"{w} {n}" for w, n in node_totals(runs).items())
            print(f"nodes in {tree}: {totals}")
        for workload, (rose, fell) in node_moves(old, new).items():
            print(f"claims' nodes in {workload}: {rose} rose, {fell} fell")
    print(f"{len(old)} commands compared, {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
