"""Verdict guard: replayed in process, the benchmark's commands give the
report bodies recorded in perfbench/reference.json (claim ids, statuses and
details; node counts are left out), so a verdict or witness change fails
here and not only in the benchmark. The same replay pins the commands' node
totals, so a change that moves any search's node count fails here too."""

import contextlib
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from kappasets import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from harness import body_digest, body_nodes, read_body  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())["bodies"]
#: Every search command, and every STRIDE-th classify command.
STRIDE = {"search": 1, "classify": 25}
#: Nodes the replayed commands spend in all. A change that moves a node
#: count on purpose updates this pin and says so.
NODE_TOTALS = {"search": 7_598, "classify": 22_317}


@functools.lru_cache(maxsize=None)
def replay(workload):
    """(command, exit code, report body) of each replayed command, in order."""
    out = []
    for argv in workloads.command_space(workload)[:: STRIDE[workload]]:
        with tempfile.TemporaryDirectory() as run_dir:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out-dir", run_dir])
            out.append((" ".join(argv), code, read_body(run_dir)))
    return tuple(out)


@pytest.mark.parametrize("workload", sorted(STRIDE))
def test_bodies_match_the_reference(workload):
    runs = replay(workload)
    mismatched = [
        (key, code)
        for key, code, body in runs
        if code != 0 or body is None or body_digest(body) != REFERENCE[workload][key]
    ]
    assert runs and mismatched == []


@pytest.mark.parametrize("workload", sorted(STRIDE))
def test_node_totals_are_pinned(workload):
    runs = replay(workload)
    assert all(body is not None for _, _, body in runs)
    assert sum(body_nodes(body) for _, _, body in runs) == NODE_TOTALS[workload]
