"""Smoke tests: the scripts under scripts/ run to completion, and the size
census prints its pinned table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CENSUS_CYCLIC6 = """\
group cyclic:6 (order 6), left side
kappa  large thickG thickA  gap  small
    2      1     63     34   29      1
    3     30     34     13   21      1
    4     51     13      7    6      1
    5     57      7      7    0      1
    6     57      7      1    6      1
nodes spent: 186
"""


def spawn_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_script(script, args, returncode=0):
    got = spawn_script(script, args)
    assert got.returncode == returncode, got.stderr
    return got.stdout if returncode == 0 else got.stderr


@pytest.mark.parametrize(
    "script,args",
    [("size_census.py", ["--group", "cyclic:4"]), ("res_tables.py", [])],
)
def test_script_exits_zero(script, args):
    assert run_script(script, args).strip()


def test_size_census_table_is_pinned():
    assert run_script("size_census.py", ["--group", "cyclic:6"]) == CENSUS_CYCLIC6


def test_compare_outputs_finds_a_tree_equal_to_itself():
    out = run_script("compare_outputs.py", [str(ROOT), str(ROOT), "--workloads", "search"])
    compared, _, differ = out.splitlines()[-1].partition(" commands compared, ")
    assert int(compared) > 0 and differ == "0 differ"


def test_res_tables_refuses_a_negative_budget():
    err = run_script("res_tables.py", ["--groups", "cyclic:4", "--node-budget", "-1"], returncode=2)
    assert "error: node budget must be >= 0, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "script,args,message",
    [
        ("size_census.py", ["--group", "nope:3"], "unknown group kind 'nope'"),
        ("size_census.py", ["--group", "symmetric:5"], "order 120 exceeds the configured maximum 64"),
        ("res_tables.py", ["--groups", "nope:3"], "unknown group kind 'nope'"),
        ("res_tables.py", ["--groups", "cyclic:4", "nope:3"], "unknown group kind 'nope'"),
        ("res_tables.py", ["--groups", "cyclic:4", "symmetric:5"], "order 120 exceeds the configured maximum 64"),
    ],
)
def test_scripts_refuse_a_bad_group_spec(script, args, message):
    # every group is built before anything is printed, so a bad spec late in
    # the list prints no header and no rows of the groups before it
    got = spawn_script(script, args)
    assert got.returncode == 2, got.stderr
    assert f"error: {message}" in got.stderr
    assert "Traceback" not in got.stderr
    assert got.stdout == ""


CODE_LINES_FIXTURE = '''\
"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


def f():
    """Function docstring."""
    # another comment
    return os.sep
'''


def test_code_lines_skips_comments_and_docstrings(tmp_path):
    (tmp_path / "fixture.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "two.py").write_text("x = 1\n\n# y = 2\ny = [\n]\n")
    lines = run_script("code_lines.py", [str(tmp_path)]).splitlines()
    counts = {Path(path).name: int(n) for n, path in (line.split() for line in lines[:-1])}
    assert counts == {"fixture.py": 3, "two.py": 3}
    assert lines[-1].split() == [str(sum(counts.values())), "total"]
