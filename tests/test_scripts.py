"""Smoke tests: the scripts under scripts/ run to completion, and the size
census prints its pinned table."""

import importlib.util
import json
import os
import shutil
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
nodes spent: 625
"""


def spawn_script(script, args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def run_script(script, args, returncode=0, cwd=None):
    got = spawn_script(script, args, cwd)
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
    for flags in ([], ["--ignore-nodes"]):
        out = run_script("compare_outputs.py", [str(ROOT), str(ROOT), "--workloads", "search", *flags])
        compared, _, differ = out.splitlines()[-1].partition(" commands compared, ")
        assert int(compared) > 0 and differ == "0 differ"
        if flags:
            assert "claims' nodes in search: 0 rose, 0 fell" in out.splitlines()


def test_compare_outputs_takes_tree_paths_relative_to_the_working_directory():
    # each run's interpreter starts in its tree, so a relative tree path
    # must be resolved before it is handed down
    args = [ROOT.name, ROOT.name, "--workloads", "search"]
    out = run_script("compare_outputs.py", args, cwd=ROOT.parent)
    assert out.splitlines()[-1].endswith(" commands compared, 0 differ")


SEARCH_REPORT = """\
kappasets report
version: 0.1.0
command: kappasets search --group cyclic:8 --kappa 3 --mode res-left --out-dir out
content-hash: 3575bd09bf30

[claim search.res-left]
anchor: max cells in a partition into left 3-large subsets
status: pass
detail: cells=2 optimal=True partition: {0,1,2,3} | {4,5,6,7}
nodes: 12
report written to out/20261019T102723Z-3575bd09bf30
"""


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_can_leave_the_node_counts_out():
    compare = load_script("compare_outputs")
    fewer = SEARCH_REPORT.replace("nodes: 12", "nodes: 7")
    other = SEARCH_REPORT.replace("cells=2", "cells=3")

    def runs(*texts):
        return [["search", ["search"], 0, text, None] for text in texts]

    assert compare.report(SEARCH_REPORT, ignore_nodes=True) == [
        "kappasets report", "version: 0.1.0", "", "[claim search.res-left]",
        "anchor: max cells in a partition into left 3-large subsets", "status: pass",
        "detail: cells=2 optimal=True partition: {0,1,2,3} | {4,5,6,7}",
    ]
    assert compare.report(SEARCH_REPORT)[-1] == "nodes: 12"
    assert len(compare.differences(runs(SEARCH_REPORT), runs(fewer))) == 1
    assert compare.differences(runs(SEARCH_REPORT), runs(fewer), ignore_nodes=True) == []
    assert len(compare.differences(runs(SEARCH_REPORT), runs(other), ignore_nodes=True)) == 1
    verify = ["verify", ["verify"], 0, "nodes: 3\nnodes: 4\n", None]
    assert compare.node_totals([*runs(SEARCH_REPORT, fewer), verify]) == {"search": 19, "verify": 7}
    more = ["verify", ["verify"], 0, "nodes: 3\nnodes: 5\n", None]
    assert compare.node_moves(
        [*runs(SEARCH_REPORT, SEARCH_REPORT), verify], [*runs(fewer, SEARCH_REPORT), more]
    ) == {"search": (0, 1), "verify": (1, 0)}


def test_compare_outputs_names_the_first_command_the_trees_list_differently():
    compare = load_script("compare_outputs")
    a = ["search", ["search", "--group", "cyclic:8"], 0, SEARCH_REPORT, None]
    b = ["search", ["search", "--group", "cyclic:9"], 0, SEARCH_REPORT, None]
    c = ["verify", ["verify", "--suite", "thm3"], 0, "", None]
    assert compare.differences([a, b], [a, c]) == [
        "the two trees list different commands (2 old, 2 new); the first to differ is #2:"
        " old search: search --group cyclic:9, new verify: verify --suite thm3"
    ]
    assert compare.differences([a, b], [a]) == [
        "the two trees list different commands (2 old, 1 new); the first to differ is #2:"
        " old search: search --group cyclic:9, new none"
    ]


def _twin(command="kappasets search --out-dir /a", nodes=12, **dumps):
    body = {"tool": "kappasets", "version": "0.1.0", "command": command, "claims": [
        {"claim_id": "search.res-left", "anchor": "max cells", "status": "pass",
         "detail": "cells=2", "nodes": nodes},
    ]}
    meta = {"generated_at": "2026-10-19T10:27:23+00:00", "wall_time_s": {"search.res-left": 0.001},
            "total_wall_time_s": 0.001}
    return json.dumps({"report": body, "run_meta": meta}, **(dumps or {"indent": 2, "sort_keys": True})) + "\n"


def test_compare_outputs_checks_the_json_twin():
    compare = load_script("compare_outputs")

    def runs(twin):
        return [["search", ["search"], 0, SEARCH_REPORT, twin]]

    # the command echo names the run's directory, so it is left out
    assert compare.differences(runs(_twin()), runs(_twin(command="kappasets search --out-dir /b"))) == []
    (block,) = compare.differences(runs(_twin()), runs(_twin(nodes=13)))
    assert block.endswith("report.json: the report objects differ")
    assert compare.differences(runs(_twin()), runs(_twin(nodes=13)), ignore_nodes=True) == []
    # the same object in another layout: each tree's file is held to its own
    for layout in ({"indent": 2}, {"indent": 1, "sort_keys": True}, {"sort_keys": True}):
        (block,) = compare.differences(runs(_twin()), runs(_twin(**layout)))
        assert block.splitlines()[1:] == [
            "report.json (new): not laid out as json.dumps(indent=2, sort_keys=True)"
        ]
    assert len(compare.differences(runs(None), runs(_twin()))) == 1
    assert compare.differences(runs(None), runs(None)) == []


def test_compare_outputs_exits_one_when_a_tree_lays_report_json_out_otherwise(tmp_path):
    # the same report objects on one line: only the layout check can see it
    tree = tmp_path / "tree"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    with open(tree / "src" / "kappasets" / "report.py", "a") as f:
        f.write(RELAID_WRITER)
    got = spawn_script("compare_outputs.py", [str(ROOT), str(tree), "--workloads", "search"])
    assert got.returncode == 1, got.stderr
    assert "report.json (new): not laid out as json.dumps(indent=2, sort_keys=True)" in got.stdout
    assert "report objects differ" not in got.stdout
    compared, _, differ = got.stdout.splitlines()[-1].partition(" commands compared, ")
    assert int(compared) > 0 and differ == f"{compared} differ"


RELAID_WRITER = """

_write_report = write_report


def write_report(report, out_root):
    out_dir, text = _write_report(report, out_root)
    path = out_dir / "report.json"
    path.write_text(json.dumps(json.loads(path.read_text())) + "\\n")
    return out_dir, text
"""


def test_res_tables_refuses_a_negative_budget():
    err = run_script("res_tables.py", ["--groups", "cyclic:4", "--node-budget", "-1"], returncode=2)
    assert "error: node budget must be >= 0, got -1" in err
    assert "Traceback" not in err
    # the budget is read in the CLI's one integer grammar, which int() is not
    for bad in ("1_0", " \u0663", "+3", ""):
        err = run_script("res_tables.py", ["--groups", "cyclic:2", "--node-budget", bad], returncode=2)
        assert f"error: argument --node-budget: invalid int value: {bad!r}" in err
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
