"""Verdict guard: replayed in process, the benchmark's commands give the
report bodies recorded in perfbench/reference.json (claim ids, statuses and
details; node counts are left out), so a verdict or witness change fails
here and not only in the benchmark."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from kappasets import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from harness import body_digest, read_body  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())["bodies"]
#: Every search command, and every STRIDE-th classify command.
STRIDE = {"search": 1, "classify": 25}


@pytest.mark.parametrize("workload", sorted(STRIDE))
def test_bodies_match_the_reference(workload, tmp_path):
    mismatched = []
    commands = workloads.command_space(workload)[:: STRIDE[workload]]
    for i, argv in enumerate(commands):
        out = tmp_path / str(i)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out-dir", str(out)])
        body = read_body(str(out))
        key = " ".join(argv)
        if code != 0 or body is None or body_digest(body) != REFERENCE[workload][key]:
            mismatched.append((key, code))
    assert commands and mismatched == []
