import argparse
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import kappasets
from kappasets import cli, report, words
from kappasets.cli import _CONSTRUCTIONS, main
from kappasets.constructions import Partition
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


@pytest.mark.parametrize(
    "group,labels",
    [("symmetric:3", "021,102"), ("product:cyclic:2+cyclic:2", "(0,1),(1,0)")],
)
def test_subset_labels_name_the_same_elements_as_indices(group, labels, tmp_path, capsys):
    # a digit label out of index range, and a product label with its comma
    claims = []
    for i, subset in enumerate((labels, "1,2")):
        argv = ["classify", "--group", group, "--subset", subset, "--kappa", "2"]
        assert run_cli(argv, tmp_path / str(i)) == 0
        claims.append(latest_report(tmp_path / str(i))[0]["report"]["claims"])
    assert claims[0] == claims[1]
    capsys.readouterr()


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
    # the budget ran out: the whole group is reported as a proved lower bound
    body, _ = latest_report(tmp_path)
    (claim,) = body["report"]["claims"]
    assert (claim["status"], claim["detail"], claim["nodes"]) == (
        "inconclusive", "cells=1 optimal=False partition: {0,1,2,3,4,5,6,7}", 3
    )
    capsys.readouterr()


def test_identical_reports_in_one_second_get_suffixes(tmp_path, monkeypatch):
    second = report.time.strptime("20260101T010101", "%Y%m%dT%H%M%S")
    monkeypatch.setattr(report.time, "gmtime", lambda: second)
    rep = report.RunReport(command="kappasets verify --suite s-set")
    digest = rep.content_hash()
    dirs = [report.write_report(rep, tmp_path)[0].name for _ in range(3)]
    stem = f"20260101T010101Z-{digest}"
    assert dirs == [stem, f"{stem}-1", f"{stem}-2"]


def test_each_report_is_hashed_and_rendered_once(tmp_path, capsys, monkeypatch):
    calls = {"hash": 0, "text": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        report.RunReport, "content_hash", counted("hash", report.RunReport.content_hash)
    )
    monkeypatch.setattr(report, "_text_body", counted("text", report._text_body))
    argv = ["classify", "--group", "cyclic:6", "--subset", "0,1,2", "--kappa", "3"]
    assert run_cli(argv, tmp_path) == 0
    assert calls == {"hash": 1, "text": 1}
    # stdout is report.txt without its timing block, then the directory line
    out = capsys.readouterr().out
    (run,) = (tmp_path / "runs").iterdir()
    shown, _, where = out.rpartition("report written to ")
    assert where == f"{run}\n"
    text = (run / "report.txt").read_text()
    assert text.startswith(shown) and text[len(shown):].startswith("timings (excluded")


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


_S_SET = ("construct.s-set", "endpoint-marked set on 2 letters", "pass",
          "364 of 1457 radius-6 words are members", 0)
_SPLIT3 = ("construct.c1-split3", "endpoint-class 3-split", "pass",
           "3-cell partition verified on the radius-5 ball", 0)
_RANK2 = ("construct.c1-rank2", "rank-2 end-factor 3-split", "pass",
          "3-cell partition verified on the radius-8 ball", 0)
_RANK1 = ("construct.c1-rank1", "rank-1 doubling-block 2-split", "pass",
          "2-cell partition verified on the radius-32 ball", 0)


def _adversary(cell, words, witness):
    return (f"construct.adversary.cell{cell}", f"cell {cell} vs adversary ({words} words)",
            "pass", f"uncovered witness {witness}", 0)


#: (claim_id, anchor, status, detail, nodes) of every claim, per construct
#: command: the six constructions at their defaults, with parameters, and
#: with an adversary for each one that can scan it
CONSTRUCT_BODIES = [
    (["s-set"], [_S_SET]),
    (["thm3"], [("construct.thm3", "two-cell last-letter split", "pass",
                 "partition verified on the radius-5 ball (22409 words)", 0)]),
    (["c1-split3"], [_SPLIT3]),
    (["c1-rank2"], [_RANK2]),
    (["c1-rank1"], [_RANK1]),
    (["c2-ds"], [("construct.c2-ds", "top component ends in mark (a,a,a)", "pass",
                  "direct sum of 3 free groups, alphabet sizes (2, 2, 2)", 0)]),
    (["s-set", "--adversary", "letters=a;radius=2"], [_S_SET, _adversary(0, 5, "b")]),
    (
        ["s-set", "--params", "m=3", "letter=c", "--radius", "4",
         "--adversary", "letters=a,b;radius=2"],
        [("construct.s-set", "endpoint-marked set on 3 letters", "pass",
          "104 of 937 radius-4 words are members", 0), _adversary(0, 17, "1")],
    ),
    (
        ["thm3", "--params", "m=4", "a1=a,b", "--radius", "4",
         "--adversary", "letters=a,b,c;radius=2"],
        [("construct.thm3", "two-cell last-letter split", "pass",
          "partition verified on the radius-4 ball (3201 words)", 0),
         _adversary(0, 37, "d"), _adversary(1, 37, "da")],
    ),
    (
        ["c1-split3", "--adversary", "letters=a,b;radius=2"],
        [_SPLIT3, _adversary(0, 17, "aa"), _adversary(1, 17, "ab"), _adversary(2, 17, "c")],
    ),
    (
        ["c1-split3", "--params", "m=6", "a1=a,b", "a2=c,d", "a3=e,f", "--radius", "3"],
        [("construct.c1-split3", "endpoint-class 3-split", "pass",
          "3-cell partition verified on the radius-3 ball", 0)],
    ),
    (
        ["c1-rank2", "--adversary", "words=a,b,ab"],
        [_RANK2, _adversary(0, 3, "bb"), _adversary(1, 3, "1"), _adversary(2, 3, "a'")],
    ),
    (["c1-rank1", "--adversary", "words=a,a'"], [_RANK1, _adversary(0, 2, "a"), _adversary(1, 2, "1")]),
    # radius 0 is the one-word ball, not the default radius
    (["thm3", "--radius", "0"], [("construct.thm3", "two-cell last-letter split", "pass",
                                  "partition verified on the radius-0 ball (1 words)", 0)]),
]


@pytest.mark.parametrize(
    "argv,claims", CONSTRUCT_BODIES, ids=[" ".join(argv) for argv, _ in CONSTRUCT_BODIES]
)
def test_construct_bodies_are_pinned(argv, claims, tmp_path, capsys):
    assert run_cli(["construct", "--construction", *argv], tmp_path) == 0
    body, _ = latest_report(tmp_path)
    got = [
        (c["claim_id"], c["anchor"], c["status"], c["detail"], c["nodes"])
        for c in body["report"]["claims"]
    ]
    assert got == claims
    capsys.readouterr()


def test_adversary_scan_without_witness_is_inconclusive(tmp_path, capsys):
    # the doubling blocks outgrow every window, so cell 1 has an uncovered
    # word, only not within radius 12: the scan cannot refute the claim
    argv = ["construct", "--construction", "c1-rank1", "--radius", "12", "--adversary", "radius=3"]
    assert run_cli(argv, tmp_path) == 3
    body, _ = latest_report(tmp_path)
    got = [(c["claim_id"], c["status"], c["detail"]) for c in body["report"]["claims"]]
    assert got == [
        ("construct.c1-rank1", "pass", "2-cell partition verified on the radius-12 ball"),
        ("construct.adversary.cell0", "pass", "uncovered witness aaaaaaaaaaa"),
        ("construct.adversary.cell1", "inconclusive", "every ball word is covered"),
    ]
    capsys.readouterr()


def claim_outcomes(tmp_path, argv):
    """Exit code and (claim_id, status, nodes) per claim of one command."""
    code = run_cli(argv, tmp_path)
    body, _ = latest_report(tmp_path)
    return code, [(c["claim_id"], c["status"], c["nodes"]) for c in body["report"]["claims"]]


@pytest.mark.parametrize(
    "budget,code,small", [(8, 3, ("inconclusive", 9)), (9, 0, ("pass", 9))]
)
def test_two_sided_small_claim_honours_the_budget(budget, code, small, tmp_path, capsys):
    # the two-sided small claim is its left scan, which spends 9 nodes here,
    # so one node less leaves it inconclusive one node past the budget
    argv = ["classify", "--group", "cyclic:6", "--subset", "0,1", "--kappa", "3",
            "--sides", "two-sided", "--node-budget", str(budget)]
    got_code, claims = claim_outcomes(tmp_path, argv)
    assert got_code == code
    assert claims[-1] == ("classify.small.two-sided", *small)
    capsys.readouterr()


def test_empty_set_is_small_without_search(tmp_path, capsys):
    # L minus the empty set is L: no scan, so no budget can run out
    argv = ["classify", "--group", "cyclic:14", "--subset", "", "--kappa", "3",
            "--sides", "left", "--node-budget", "5000"]
    assert run_cli(argv, tmp_path) == 0
    body, _ = latest_report(tmp_path)
    small = body["report"]["claims"][-1]
    assert (small["claim_id"], small["status"], small["detail"], small["nodes"]) == (
        "classify.small.left", "pass", "verdict=True", 0
    )
    capsys.readouterr()


@pytest.mark.parametrize("budget,code", [(137_640, 3), (137_641, 0)])
def test_verify_honours_the_node_budget(budget, code, tmp_path, capsys):
    argv = ["verify", "--suite", "comment2", "--node-budget", str(budget)]
    got_code, claims = claim_outcomes(tmp_path, argv)
    assert got_code == code
    assert claims[0] == (
        "comment2.support-preservation", "pass" if code == 0 else "inconclusive", 137_641
    )
    capsys.readouterr()


@pytest.mark.parametrize("budget,code", [(285, 3), (286, 0)])
def test_search_recheck_spends_from_the_budget(budget, code, tmp_path, capsys):
    # the found partition's re-check through is_thick is charged to the
    # claim: the search finds it within 154 nodes, the re-check spends the rest
    argv = ["search", "--group", "cyclic:12", "--kappa", "3", "--mode", "two-thick",
            "--node-budget", str(budget)]
    got_code, claims = claim_outcomes(tmp_path, argv)
    assert got_code == code
    assert claims == [("search.two-thick", "pass" if code == 0 else "inconclusive", 286)]
    capsys.readouterr()


def report_text(argv, tmp_path, capsys):
    """What one in-process command prints, but the line naming its run directory."""
    run_cli(argv, tmp_path)
    lines = capsys.readouterr().out.splitlines()
    return [line for line in lines if not line.startswith("report written to")]


def test_verify_body_does_not_depend_on_earlier_runs(tmp_path, capsys):
    meets = ["verify", "--suite", "meets"]
    alone = report_text(meets, tmp_path, capsys)
    assert report_text(meets, tmp_path, capsys) == alone
    report_text(["verify", "--suite", "duality"], tmp_path, capsys)
    assert report_text(meets, tmp_path, capsys) == alone


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


def test_usage_errors(tmp_path, capsys, monkeypatch):
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
    capsys.readouterr()
    assert run_cli(
        ["classify", "--group", "cyclic:1", "--subset", "0", "--kappa", "2"], tmp_path
    ) == 2
    assert "error: no kappa is admissible for a group of order 1" in capsys.readouterr().err
    assert run_cli(["construct", "--construction", "s-set", "--params", "letter="], tmp_path) == 2
    assert run_cli(
        ["construct", "--construction", "c2-ds", "--params", "alphabets=2,2", "marks=a,"], tmp_path
    ) == 2
    assert "error: a letter is required" in capsys.readouterr().err
    # input that construct used to drop without a word
    for argv, message in (
        (["s-set", "--params", "letter=a,b"], "only one letter is allowed"),
        (["c2-ds", "--params", "alphabets=2,2", "marks=a,b,a"],
         "c2-ds takes one mark per alphabet: alphabets gives 2, marks gives 3"),
        (["c2-ds", "--params", "alphabets=2,2", "marks=a,a,a"],
         "c2-ds takes one mark per alphabet: alphabets gives 2, marks gives 3"),
        # integer fields used to fail with Python's own int() message
        (["s-set", "--params", "m=x"], "s-set parameter m must be an integer, got 'x'"),
        (["thm3", "--params", "m="], "thm3 parameter m must be an integer, got ''"),
        (["c2-ds", "--params", "alphabets=2,,2"],
         "an entry of c2-ds parameter alphabets must be an integer, got ''"),
        (["thm3", "--adversary", "radius=x"], "adversary field radius must be an integer, got 'x'"),
        (["s-set", "--params", "letters=b"], "unknown s-set parameter letters"),
        (["c1-rank2", "--params", "m=3"], "unknown c1-rank2 parameter m"),
        (["c2-ds", "--adversary", "letters=a"], "c2-ds takes no --adversary"),
        (["thm3", "--params", "m=3", "m=4"], "thm3 parameter m is given twice"),
    ):
        assert run_cli(["construct", "--construction", *argv], tmp_path) == 2
        assert f"error: {message}" in capsys.readouterr().err
    # options a subcommand does not read are not declared
    for argv in (
        ["construct", "--construction", "thm3", "--node-budget", "5"],
        ["construct", "--construction", "thm3", "--max-order", "8"],
        ["verify", "--suite", "thm3", "--max-order", "8"],
    ):
        assert run_cli(argv, tmp_path) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    # a negative node budget
    for argv in (
        ["classify", "--group", "cyclic:6", "--subset", "0,1,2", "--kappa", "3"],
        ["search", "--group", "cyclic:8", "--kappa", "3", "--mode", "two-thick"],
        ["verify", "--suite", "s-set"],
    ):
        assert run_cli([*argv, "--node-budget", "-5"], tmp_path) == 2
        assert "error: node budget must be >= 0, got -5" in capsys.readouterr().err
    # input that used to run anyway: a zero cell count read as the default 2,
    # a cell count the resolvability searches ignored, a negative adversary
    # radius scanned as the one-word ball, and a side classified twice
    for argv, message in (
        (["search", "--group", "cyclic:6", "--kappa", "3", "--mode", "two-thick", "--cells", "0"],
         "cell count must lie in [2, |G|]"),
        (["search", "--group", "cyclic:6", "--kappa", "3", "--mode", "res-left", "--cells", "3"],
         "res-left searches for the cell count and takes no --cells"),
        (["search", "--group", "cyclic:6", "--kappa", "3", "--mode", "res-both", "--cells", "2"],
         "res-both searches for the cell count and takes no --cells"),
        (["construct", "--construction", "s-set", "--adversary", "radius=-1"],
         "radius must be >= 0"),
        (["classify", "--group", "cyclic:6", "--subset", "0,1", "--kappa", "3",
          "--sides", "left,left"], "a side is repeated in --sides left,left"),
        # a variant the mode never reads, and a radius c2-ds builds no ball for
        (["search", "--group", "cyclic:6", "--kappa", "3", "--mode", "res-left",
          "--variant", "witness-in-A"], "res-left takes no --variant"),
        (["search", "--group", "cyclic:6", "--kappa", "3", "--mode", "res-both",
          "--variant", "witness-in-G"], "res-both takes no --variant"),
        (["search", "--group", "cyclic:6", "--kappa", "3", "--mode", "non-large",
          "--variant", "witness-in-A"], "non-large takes no --variant"),
        (["construct", "--construction", "c2-ds", "--radius", "5"],
         "c2-ds builds no ball and takes no --radius"),
    ):
        assert run_cli(argv, tmp_path) == 2
        assert f"error: {message}" in capsys.readouterr().err
    # an unknown side is refused before any claim runs its search
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran before the sides were checked")

    for name in ("is_large", "is_thick", "is_small"):
        monkeypatch.setattr(cli, name, no_search)
    argv = ["classify", "--group", "cyclic:14", "--subset", ",".join(map(str, range(13))),
            "--kappa", "8", "--sides", "left,bogus"]
    assert run_cli(argv, tmp_path) == 2
    assert "error: side must be one of" in capsys.readouterr().err
    # an empty --sides names no side; it used to run all three
    argv = ["classify", "--group", "cyclic:6", "--subset", "0,1", "--kappa", "3", "--sides", ""]
    assert run_cli(argv, tmp_path) == 2
    assert "error: side must be one of" in capsys.readouterr().err
    # adversary input that used to be dropped without a word, or built past
    # the word limit of a ball: an unknown key, words beside letters or a
    # radius, and a word list over the (lowered) limit
    monkeypatch.setattr(words, "MAX_BALL_WORDS", 100)
    for adversary, message in (
        ("radius=1;letter=b", "unknown adversary field letter; it takes: letters, radius, words"),
        ("words=b,ab;radius=5", "an adversary takes words=..., or letters and radius, not both"),
        ("words=b;letters=a", "an adversary takes words=..., or letters and radius, not both"),
        ("letters=a,b;radius=4", "ball of rank 2, radius 4 has 161 words (limit 100)"),
        # a key given twice kept its last value; an empty adversary was none
        ("radius=1;radius=2", "adversary field radius is given twice"),
        ("", "empty adversary '': it takes letters, radius or words"),
        (" ; ", "empty adversary ' ; ': it takes letters, radius or words"),
        # a letters field naming no letter used to widen to every letter
        ("letters=;radius=1", "adversary field letters names no letter, got ''"),
        ("letters= , ;radius=1", "adversary field letters names no letter, got ','"),
    ):
        argv = ["construct", "--construction", "s-set", "--radius", "2", "--adversary", adversary]
        assert run_cli(argv, tmp_path) == 2
        assert f"error: {message}" in capsys.readouterr().err
    # a refused adversary is refused before the construction is built and
    # verified; its alphabet is the m parameter or the fixed rank
    def no_build(*args, **kwargs):
        raise AssertionError("the construction was built before its adversary was read")

    monkeypatch.setattr(Partition, "verify_on_ball", no_build)
    for argv, message in (
        # the count stops at radius 3, the first length past the lowered limit
        (["thm3", "--adversary", "radius=9"],
         "ball of rank 4, radius 9 has at least 457 words (limit 100)"),
        (["thm3", "--adversary", ""], "empty adversary"),
        (["thm3", "--params", "m=2", "--adversary", "letters=c"],
         "letter 'c' out of range for alphabet size 2"),
        (["c1-rank2", "--adversary", "letters=c"], "letter 'c' out of range for alphabet size 2"),
        (["c1-rank1", "--adversary", "words=b"], "letter 'b' out of range for alphabet of size 1"),
    ):
        assert run_cli(["construct", "--construction", *argv], tmp_path) == 2
        assert f"error: {message}" in capsys.readouterr().err


#: radius of each verify_on_ball call a command makes: each partition once,
#: on the ball of the radius the caller names
VERIFIED_ONCE = [
    (["construct", "--construction", "c1-rank2", "--radius", "8"], [8]),
    (["construct", "--construction", "thm3", "--radius", "5",
      "--adversary", "letters=a,b;radius=1"], [5]),
    (["construct", "--construction", "c1-split3"], [5]),
    (["construct", "--construction", "c1-rank1", "--radius", "12"], [12]),
    (["verify", "--suite", "thm3"], [5, 3, 3]),
    (["verify", "--suite", "comment1"], [6, 4, 8, 64, 4, 4, 3]),
]


@pytest.mark.parametrize(
    "argv,radii", VERIFIED_ONCE, ids=[" ".join(argv) for argv, _ in VERIFIED_ONCE]
)
def test_each_partition_is_verified_once(argv, radii, tmp_path, capsys, monkeypatch):
    seen = []
    verify = Partition.verify_on_ball

    def counted(part, ball):
        seen.append(ball.radius)
        verify(part, ball)

    monkeypatch.setattr(Partition, "verify_on_ball", counted)
    assert run_cli(argv, tmp_path) == 0
    assert seen == radii
    capsys.readouterr()


def test_construct_params_help_lists_every_key(capsys):
    assert main(["construct", "--help"]) == 0
    out = capsys.readouterr().out
    for name, (defaults, *_) in _CONSTRUCTIONS.items():
        assert name in out
        for key, value in defaults.items():
            assert f"{key}={value}" in out


#: Per command: a valid argv, then usage errors: a missing required option,
#: a bad choices value, a bad int, an unknown option and, with a required
#: option missing, an abbreviated valid option.
PARSE_CASES = {
    "classify": (
        ["--group", "cyclic:6", "--subset", "0", "--kap", "3"],
        [
            ["--group", "cyclic:6", "--subset", "0"],
            ["--group", "cyclic:6", "--subset", "0", "--kappa", "3", "--variant", "nope"],
            ["--group", "cyclic:6", "--subset", "0", "--kappa", "x"],
            ["--group", "cyclic:6", "--subset", "0", "--kappa", "3", "--bogus", "1"],
            ["--kap", "3"],
        ],
    ),
    "construct": (
        ["--cons", "thm3", "--params", "m=2", "--rad", "3"],
        [
            ["--radius", "3"],
            ["--construction", "nope"],
            ["--construction", "thm3", "--radius", "x"],
            ["--construction", "thm3", "--bogus"],
            ["--rad", "3"],
        ],
    ),
    "search": (
        ["--group", "cyclic:6", "--kappa", "3", "--mode", "res-left", "--node", "9"],
        [
            ["--group", "cyclic:6", "--kappa", "3"],
            ["--group", "cyclic:6", "--kappa", "3", "--mode", "nope"],
            ["--group", "cyclic:6", "--kappa", "3", "--mode", "two-thick", "--cells", "x"],
            ["--group", "cyclic:6", "--kappa", "3", "--mode", "res-left", "--bogus"],
            ["--kap", "3", "--mode", "res-left"],
        ],
    ),
    "verify": (
        ["--su", "s-set", "--node", "9"],
        [
            ["--node-budget", "9"],
            ["--suite", "nope"],
            ["--suite", "s-set", "--node-budget", "x"],
            ["--suite", "s-set", "--bogus"],
            ["--node", "9"],
        ],
    ),
}
HELP = [["--help"], ["-h"], ["--h"]]
FULL_PARSER_CASES = [[], ["nope"], *HELP] + [
    [name, *tail] for name, (_, errors) in PARSE_CASES.items() for tail in HELP + errors
]


@pytest.mark.parametrize("argv", FULL_PARSER_CASES, ids=" ".join)
def test_help_and_usage_errors_are_the_full_parsers(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a parse that wrongly succeeds writes its report here
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as full:
        cli._build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (got.out, got.err, code) == (want.out, want.err, full.value.code)
    assert want.out or want.err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("name", PARSE_CASES)
def test_lean_parse_of_a_valid_command_matches_the_full_parse(name):
    argv = [name, *PARSE_CASES[name][0]]
    assert vars(cli._parse_args(argv)) == vars(cli._build_parser().parse_args(argv))


def test_main_builds_only_the_named_subparser_per_call(tmp_path, capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    argv = ["classify", "--group", "cyclic:6", "--subset", "0,1,2", "--kappa", "3"]
    assert run_cli(argv, tmp_path) == 0
    assert built == ["classify"]
    assert run_cli(argv, tmp_path) == 0  # built again: no parser outlives a call
    assert built == ["classify"] * 2
    # help is printed by the same one-subparser parser
    assert main(["classify", "--h"]) == 0
    assert built == ["classify"] * 3
    capsys.readouterr()


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


def cap_memory():
    # a regression forms a huge power or letter set: cap the child's address
    # space so that it fails at 1 GiB instead of filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["thm3", "--adversary", f"radius={HUGE}"],
         f"ball of rank 4, radius {HUGE} has at least 7686401 words (limit 2000000)"),
        (["thm3", "--radius", HUGE],
         f"ball of rank 4, radius {HUGE} has at least 7686401 words (limit 2000000)"),
        (["s-set", "--params", f"m={HUGE}"],
         f"alphabet of rank {HUGE} has {2 * int(HUGE)} signed letters (limit 2000000)"),
        (["thm3", "--params", f"m={HUGE}"],
         f"alphabet of rank {HUGE} has {2 * int(HUGE)} signed letters (limit 2000000)"),
        (["c1-split3", "--params", f"m={HUGE}"],
         f"alphabet of rank {HUGE} has {2 * int(HUGE)} signed letters (limit 2000000)"),
        (["s-set", "--params", "m=-1"], "s-set parameter m must be >= 1, got -1"),
    ],
    ids=["adversary-radius", "radius", "s-set-m", "thm3-m", "c1-split3-m", "s-set-negative-m"],
)
def test_huge_rank_or_radius_is_refused_before_the_build(argv, message, tmp_path):
    # each of these once ran until killed; the rank and the word count are
    # now checked before any letter set or ball is built, and a child with a
    # timeout turns a regression into a failure rather than a hang
    got = subprocess.run(
        [sys.executable, "-m", "kappasets", "construct", "--construction", *argv,
         "--out-dir", str(tmp_path / "runs")],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=cap_memory,
    )
    assert got.returncode == 2
    assert f"error: {message}" in got.stderr


#: Runs the command in its argv in a child and prints the child's peak RSS
#: in kB, then its standard output; this process starts no other child.
PEAK_RSS_CHILD = """
import resource, subprocess, sys
got = subprocess.run(sys.argv[1:], capture_output=True, text=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.stdout.write(got.stdout + got.stderr)
"""


def test_thick_sweep_memory_stays_bounded(tmp_path):
    # C(24, 9) = 1,307,504 maximal test sets are checked, and four are kept
    argv = [
        sys.executable, "-m", "kappasets", "classify", "--group", "symmetric:4",
        "--subset", ",".join(map(str, range(1, 24))), "--kappa", "10", "--sides", "left",
        "--variant", "witness-in-G", "--out-dir", str(tmp_path / "runs"),
    ]
    got = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, *argv], capture_output=True, text=True
    )
    assert got.returncode == 0, got.stderr
    peak_kb, out = got.stdout.split("\n", 1)
    assert int(peak_kb) < 64 * 1024, out
    (detail,) = [
        line for line in out.split("[claim ")[2].splitlines() if line.startswith("detail: ")
    ]
    assert detail.endswith(f"(+{math.comb(24, 9) - 4} more)")


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
