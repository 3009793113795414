import json
import subprocess
import sys
from pathlib import Path

import pytest

import kappasets
from kappasets import report
from kappasets.cli import main
from kappasets.groups import build_group


def run_cli(args, tmp_path):
    return main(list(args) + ["--out-dir", str(tmp_path / "runs")])


def latest_report(tmp_path):
    runs = sorted((tmp_path / "runs").iterdir())
    assert runs
    body = json.loads((runs[-1] / "report.json").read_text())
    text = (runs[-1] / "report.txt").read_text()
    return body, text


def test_classify_reproduces_worked_example(tmp_path, capsys):
    code = run_cli(
        ["classify", "--group", "cyclic:6", "--subset", "0,1,2", "--kappa", "3", "--sides", "left"],
        tmp_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict=True witness F={0,3}" in out
    assert "classify.thick.left.witness-in-G" in out
    body, text = latest_report(tmp_path)
    ids = [c["claim_id"] for c in body["report"]["claims"]]
    assert "classify.large.left" in ids and "classify.small.left" in ids
    assert "content-hash" in text


def test_classify_accepts_labels(tmp_path, capsys):
    code = run_cli(
        ["classify", "--group", "dihedral:3", "--subset", "r0,sr1", "--kappa", "2"],
        tmp_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "classify.large.two-sided" in out


def test_report_bodies_are_byte_stable(tmp_path, capsys):
    args = ["classify", "--group", "cyclic:5", "--subset", "0,2", "--kappa", "3"]
    assert run_cli(args, tmp_path) == 0
    body1, _ = latest_report(tmp_path)
    assert run_cli(args, tmp_path) == 0
    body2, _ = latest_report(tmp_path)
    assert body1["report"] == body2["report"]
    capsys.readouterr()


def test_search_res_left(tmp_path, capsys):
    code = run_cli(
        ["search", "--group", "cyclic:6", "--kappa", "4", "--mode", "res-left"], tmp_path
    )
    assert code == 0
    assert "cells=3 optimal=True" in capsys.readouterr().out


def test_search_two_thick_annotates_the_contrast(tmp_path, capsys):
    code = run_cli(
        ["search", "--group", "cyclic:6", "--kappa", "3", "--mode", "two-thick"], tmp_path
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "{0,1,3} | {2,4,5}" in out
    assert "regular-cardinal regime" in out


def test_search_budget_exit_code(tmp_path, capsys):
    code = run_cli(
        [
            "search", "--group", "dihedral:4", "--kappa", "5", "--mode", "res-left",
            "--node-budget", "2",
        ],
        tmp_path,
    )
    assert code == 3
    capsys.readouterr()


def test_construct_with_adversary(tmp_path, capsys):
    code = run_cli(
        [
            "construct", "--construction", "thm3", "--params", "m=4", "a1=a,b",
            "--radius", "4", "--adversary", "letters=a,b,c;radius=2",
        ],
        tmp_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "construct.adversary.cell0" in out
    assert "uncovered witness d" in out  # the letter the adversary never uses


def test_construct_word_list_adversary(tmp_path, capsys):
    code = run_cli(
        [
            "construct", "--construction", "s-set", "--params", "m=2",
            "--radius", "5", "--adversary", "words=1,a,a'",
        ],
        tmp_path,
    )
    assert code == 0
    capsys.readouterr()


def test_verify_suite_exit_zero(tmp_path, capsys):
    code = run_cli(["verify", "--suite", "thm3"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "status: pass" in out


def test_verify_all_suites(tmp_path, capsys):
    code = run_cli(["verify", "--suite", "all"], tmp_path)
    assert code == 0
    body, _ = latest_report(tmp_path)
    claims = body["report"]["claims"]
    assert len(claims) >= 60
    assert all(c["status"] == "pass" for c in claims)
    capsys.readouterr()


def test_usage_errors(tmp_path, capsys):
    assert main(["classify", "--group", "cyclic:6"]) == 2  # missing flags
    assert run_cli(
        ["classify", "--group", "nope:4", "--subset", "0", "--kappa", "2"], tmp_path
    ) == 2
    assert run_cli(
        ["classify", "--group", "cyclic:4", "--subset", "9", "--kappa", "2"], tmp_path
    ) == 2
    assert run_cli(
        ["classify", "--group", "cyclic:4", "--subset", "0", "--kappa", "9"], tmp_path
    ) == 2
    assert run_cli(["construct", "--construction", "s-set", "--params", "letter="], tmp_path) == 2
    assert run_cli(
        ["construct", "--construction", "c2-ds", "--params", "alphabets=2,2", "marks=a,"], tmp_path
    ) == 2
    assert "error: a letter is required" in capsys.readouterr().err


def test_file_group_spec(tmp_path, capsys):
    G = build_group("cyclic:3")
    table = tmp_path / "c3.txt"
    table.write_text("3\n" + "\n".join(" ".join(map(str, row)) for row in G.mul) + "\n")
    code = run_cli(
        ["classify", "--group", f"file:{table}", "--subset", "g0,g1", "--kappa", "2"],
        tmp_path,
    )
    assert code == 0
    capsys.readouterr()


def test_console_entry_point_subprocess(tmp_path):
    got = subprocess.run(
        [
            sys.executable, "-m", "kappasets", "classify", "--group", "cyclic:4",
            "--subset", "0,1", "--kappa", "3", "--out-dir", str(tmp_path / "runs"),
        ],
        capture_output=True,
        text=True,
    )
    assert got.returncode == 0
    assert "kappasets report" in got.stdout


def test_search_reverifies_under_optimize_flag(tmp_path):
    # the re-verifications raise explicitly, so -O (which strips asserts)
    # must neither fail nor change the report
    bodies = []
    for flags in ([], ["-O"]):
        out = tmp_path / ("opt" if flags else "plain")
        got = subprocess.run(
            [
                sys.executable, *flags, "-m", "kappasets", "search", "--group", "dihedral:6",
                "--kappa", "4", "--mode", "res-left", "--out-dir", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert got.returncode == 0, got.stderr
        (run,) = out.iterdir()
        claims = json.loads((run / "report.json").read_text())["report"]["claims"]
        bodies.append([(c["claim_id"], c["status"], c["detail"]) for c in claims])
    assert bodies[0] == bodies[1]
    assert bodies[0]


def test_version_has_one_source():
    assert kappasets.__version__ == report.TOOL_VERSION
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "kappasets.report.TOOL_VERSION"
    }
