import argparse
import functools
import json
import math
import re
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kappasets
from kappasets import cli, report, suites, words
from kappasets.cli import _CONSTRUCTIONS, main
from kappasets.constructions import Partition
from kappasets.groups import Subset, build_group


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


@pytest.mark.parametrize("subset", ["1,2)", "(0", "0)", "((0,1)", ")(0"])
def test_an_unbalanced_parenthesis_in_subset_is_a_usage_error(subset, tmp_path, capsys):
    # each of these once dropped items and exited 0: "1,2)" classified {1},
    # and "(0", "0)" and "((0,1)" the empty set
    argv = ["classify", "--group", "cyclic:4", "--subset", subset, "--kappa", "2"]
    assert run_cli(argv, tmp_path) == 2
    assert capsys.readouterr().err == f"error: unbalanced parentheses in --subset {subset!r}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("subset", ["01", "01,10"])
def test_an_index_that_is_another_elements_label_is_a_usage_error(subset, tmp_path, capsys):
    # on symmetric:2 the labels are 01 and 10: "01" once read as index 1, so
    # the identity could not be named by its label and "01,10" classified {1}
    argv = ["classify", "--group", "symmetric:2", "--subset", subset, "--kappa", "2"]
    assert run_cli(argv, tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: ambiguous element '01' in --subset: index 1, or the label of element 0\n"
    )
    assert not (tmp_path / "runs").exists()


def test_a_label_out_of_index_range_and_indices_still_parse():
    G = build_group("symmetric:2")
    assert cli._parse_subset(G, "10") == Subset.from_indices(2, (1,))
    assert cli._parse_subset(G, "0,1") == Subset.from_indices(2, (0, 1))


def test_product_labels_with_commas_still_parse():
    G = build_group("product:cyclic:2+cyclic:3")
    want = Subset.from_indices(G.order, (G.labels.index("(0,1)"), G.labels.index("(1,2)")))
    assert want.size == 2
    assert cli._parse_subset(G, "(0,1),(1,2)") == cli._parse_subset(G, " (1,2) , (0,1) ") == want


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


def test_generated_at_is_the_utc_time_now_in_iso_8601():
    before = time.time()
    stamp = report.RunReport("kappasets verify").run_meta()["generated_at"]
    after = time.time()
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00", stamp)
    got = datetime.fromisoformat(stamp)
    assert got.utcoffset() == timedelta(0)
    assert before - 1 < got.timestamp() < after + 1


@pytest.mark.parametrize(
    "ns", [0, 1_700_000_000 * 10**9, 1_700_000_000_000_001_999, 4_102_444_799_999_999_999]
)
def test_generated_at_is_written_as_datetime_isoformat_writes_it(ns, monkeypatch):
    monkeypatch.setattr(report.time, "time_ns", lambda: ns)
    stamp = report.RunReport("kappasets verify").run_meta()["generated_at"]
    when = datetime.fromtimestamp(ns // 10**9, timezone.utc)
    assert stamp == when.replace(microsecond=ns // 1000 % 10**6).isoformat()


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


#: Text with quotes, backslashes, control and non-ASCII characters.
AWKWARD_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\x00\x1f\x7f\n\t\u00e9\u2603\U0001f600 '), max_size=8)


def assert_json_twin_is_what_json_dumps_writes(out_dir, rep, meta):
    expected = json.dumps({"report": rep.body_dict(), "run_meta": meta}, indent=2, sort_keys=True)
    assert (out_dir / "report.json").read_bytes() == (expected + "\n").encode()


@given(
    command=AWKWARD_TEXT,
    claims=st.lists(
        st.tuples(
            st.sampled_from(["b", "a", "c.1"]) | AWKWARD_TEXT,  # repeated ids among them
            AWKWARD_TEXT,
            st.sampled_from(report.STATUSES),
            AWKWARD_TEXT,
            st.sampled_from([0, 1, 2**63 + 1, 10**30]) | st.integers(0, 2**70),
            st.sampled_from([0.0, 1e-07, 2.5e-05, 1e16, 0.1 + 0.2]) | st.floats(0, 1e20),
        ),
        max_size=6,
    ),
)
@settings(max_examples=300, deadline=None)
def test_report_json_is_what_json_dumps_writes(command, claims):
    rep = report.RunReport(command, [report.ClaimRecord(*c) for c in claims])
    meta = rep.run_meta()
    # unrounded, so that 1e-07 and other exponent forms are written too
    meta["wall_time_s"] = {c.claim_id: c.wall_time_s for c in rep.claims}
    rep.run_meta = lambda: meta
    with tempfile.TemporaryDirectory() as root:
        out_dir, _ = report.write_report(rep, root)
        assert_json_twin_is_what_json_dumps_writes(out_dir, rep, meta)


def test_report_txt_holds_non_ascii_and_control_characters_as_open_writes_them(tmp_path):
    rep = report.RunReport("kappasets classify \u00e9\u2603\U0001f600 \x00\x1f\x7f\r\t")
    rep.claims.append(report.ClaimRecord("c\u00e9", "anchor \u2603", "pass", "detail \x1b[0m", 3))
    meta = {"generated_at": "\u00e9", "wall_time_s": {"c\u00e9": 0.5}, "total_wall_time_s": 0.5}
    rep.run_meta = lambda: meta
    out_dir, text = report.write_report(rep, tmp_path)
    assert "\u00e9\u2603\U0001f600 \x00\x1f\x7f\r\t" in text and "\x1b[0m" in text
    with open(tmp_path / "reference.txt", "w") as f:
        f.write(text + "timings (excluded from content hash):\n  c\u00e9: 0.5s\n  total: 0.5s\n")
        f.write("generated-at: \u00e9\n")
    assert (out_dir / "report.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


def test_a_missing_report_root_is_made_with_its_parents(tmp_path):
    root = tmp_path / "a" / "b" / "c"
    out_dir, _ = report.write_report(report.RunReport("kappasets verify"), root)
    assert isinstance(out_dir, Path) and out_dir.parent == root
    assert sorted(p.name for p in out_dir.iterdir()) == ["report.json", "report.txt"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--group", "dihedral:4", "--subset", "0,3,5", "--kappa", "3"],
        ["construct", "--construction", "thm3", "--params", "m=3", "a1=a", "--radius", "2"],
        ["search", "--group", "cyclic:8", "--kappa", "3", "--mode", "two-thick", "--cells", "2"],
        ["verify", "--suite", "meets"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_real_report_json_is_what_json_dumps_writes(argv, tmp_path, capsys, monkeypatch):
    written = []

    def kept(rep, out_root):
        meta = rep.run_meta()
        rep.run_meta = lambda: meta
        written.append((rep, meta))
        return report.write_report(rep, out_root)

    monkeypatch.setattr(cli, "write_report", kept)
    assert run_cli(argv, tmp_path) == 0
    capsys.readouterr()
    ((rep, meta),) = written
    (out_dir,) = (tmp_path / "runs").iterdir()
    assert rep.claims
    assert_json_twin_is_what_json_dumps_writes(out_dir, rep, meta)


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
    "budget,code,small", [(2, 3, ("inconclusive", 3)), (3, 0, ("pass", 3))]
)
def test_two_sided_small_claim_honours_the_budget(budget, code, small, tmp_path, capsys):
    # the two-sided small claim is its left scan, which spends 3 nodes here,
    # so one node less leaves it inconclusive one node past the budget; the
    # large and witness-in-A thickness claims spend 2 each, so the small
    # claim alone decides the exit code
    argv = ["classify", "--group", "cyclic:6", "--subset", "0,1", "--kappa", "3",
            "--sides", "two-sided", "--variant", "witness-in-A", "--node-budget", str(budget)]
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


@pytest.mark.parametrize("budget,code", [(121, 3), (122, 0)])
def test_search_recheck_spends_from_the_budget(budget, code, tmp_path, capsys):
    # the found partition's re-check through is_thick is charged to the
    # claim: the search finds it within 44 nodes, the re-check spends the rest
    argv = ["search", "--group", "cyclic:12", "--kappa", "3", "--mode", "two-thick",
            "--node-budget", str(budget)]
    got_code, claims = claim_outcomes(tmp_path, argv)
    assert got_code == code
    assert claims == [("search.two-thick", "pass" if code == 0 else "inconclusive", 122)]
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


def test_classify_nodes_do_not_depend_on_earlier_commands_on_the_group(tmp_path, capsys):
    # the classifiers cache on the GroupTable object, so each command needs a
    # table of its own, however the spec's checked table is kept
    argv = ["classify", "--group", "cyclic:6", "--subset", "0,4", "--kappa", "4"]
    first = subprocess.run(
        [sys.executable, "-m", "kappasets", *argv, "--out-dir", str(tmp_path / "runs")],
        capture_output=True,
        text=True,
    )
    assert first.returncode == 0, first.stderr
    alone = [line for line in first.stdout.splitlines() if not line.startswith("report written to")]
    assert "nodes: 16" in alone  # large.two-sided, which a cached cover answers for 0
    for earlier in (["--sides", "left"], ["--kappa", "3"], []):
        report_text([*argv, *earlier], tmp_path, capsys)
        assert report_text(argv, tmp_path, capsys) == alone


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


def test_verify_failing_claim_exits_one(tmp_path, capsys, monkeypatch):
    # a failing claim exits 1, and outranks an inconclusive claim in the same report
    def fails(counter):
        return False, "counterexample 1"

    def runs_out(counter):
        counter.spend(counter.budget + 1)

    # a verify parser cached earlier has copied the suite names into its
    # --suite choices, so this test parses with a cache of its own
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser.__wrapped__))
    monkeypatch.setitem(suites.SUITES, "broken", (
        ("broken.runs-out", "spends past its budget", runs_out),
        ("broken.fails", "always fails", fails),
    ))
    assert run_cli(["verify", "--suite", "broken"], tmp_path) == 1
    out = capsys.readouterr().out
    assert "status: inconclusive" in out
    assert "status: fail" in out


@pytest.mark.parametrize(
    "argv,claim",
    [
        (["c2-ds", "--params", "alphabets=30", "marks=x27"],
         ("construct.c2-ds", "top component ends in mark (x27)", "pass",
          "direct sum of 1 free groups, alphabet sizes (30,)", 0)),
        (["s-set", "--params", "m=30", "letter=x27", "--radius", "1"],
         ("construct.s-set", "endpoint-marked set on 30 letters", "pass",
          "2 of 61 radius-1 words are members", 0)),
        (["thm3", "--params", "m=3", "a1=x1,b", "--radius", "1"],
         ("construct.thm3", "two-cell last-letter split", "pass",
          "partition verified on the radius-1 ball (7 words)", 0)),
    ],
    ids=["c2-ds marks=x27", "s-set letter=x27", "thm3 a1=x1,b"],
)
def test_params_read_letters_by_the_word_grammar(argv, claim, tmp_path, capsys):
    # the letters construct prints are the ones it reads
    assert run_cli(["construct", "--construction", *argv], tmp_path) == 0
    body, _ = latest_report(tmp_path)
    c = body["report"]["claims"][0]
    assert (c["claim_id"], c["anchor"], c["status"], c["detail"], c["nodes"]) == claim
    capsys.readouterr()


def test_letters_outside_the_word_grammar_are_usage_errors(tmp_path, capsys):
    for argv, message in (
        # 0-based digits and capitals are not letters of the word grammar
        (["c2-ds", "--params", "alphabets=30", "marks=26"], "cannot parse word literal '26'"),
        (["thm3", "--params", "a1=A"], "cannot parse word literal 'A'"),
        (["s-set", "--adversary", "letters=0;radius=1"], "cannot parse word literal '0'"),
        # a word that is not one letter
        (["s-set", "--params", "letter=a'"], "bad letter \"a'\""),
        (["thm3", "--params", "a1=ab"], "bad letter 'ab'"),
        (["s-set", "--params", "letter=1"], "bad letter '1'"),
        # one out-of-range message, from letters= and words= alike
        (["c1-rank2", "--adversary", "letters=c"],
         "letter 'c' out of range for alphabet of size 2"),
        (["c1-rank1", "--adversary", "words=b"], "letter 'b' out of range for alphabet of size 1"),
        (["c2-ds", "--params", "alphabets=2,30", "marks=a,x31"],
         "letter 'x31' out of range for alphabet of size 30"),
    ):
        assert run_cli(["construct", "--construction", *argv], tmp_path) == 2
        assert f"error: {message}" in capsys.readouterr().err


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
         "letter 'c' out of range for alphabet of size 2"),
        (["c1-rank2", "--adversary", "letters=c"], "letter 'c' out of range for alphabet of size 2"),
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


def test_a_valid_command_never_reaches_the_top_level_parser(tmp_path, capsys, monkeypatch):
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    argv = ["classify", "--group", "cyclic:6", "--subset", "0,1,2", "--kappa", "3"]
    assert run_cli(argv, tmp_path) == 0
    assert parsed == ["kappasets classify"]
    args = cli._parse_args(argv)
    assert parsed == ["kappasets classify"] * 2 and args.command == "classify"
    # an argument the subparser leaves goes to the full parser, which refuses it
    assert main([*argv, "--bogus"]) == 2
    assert parsed[2:] == ["kappasets classify", "kappasets", "kappasets classify"]
    capsys.readouterr()


def test_main_builds_only_the_named_subparser_once(tmp_path, capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser.__wrapped__))
    argv = ["classify", "--group", "cyclic:6", "--subset", "0,1,2", "--kappa", "3"]
    assert run_cli(argv, tmp_path) == 0
    assert built == ["classify"]
    assert run_cli(argv, tmp_path) == 0  # the parser outlives the call
    assert built == ["classify"]
    # help is printed by the same one-subparser parser
    assert main(["classify", "--h"]) == 0
    assert built == ["classify"]
    capsys.readouterr()


def reused_parser_outcomes(root, capsys, monkeypatch, fresh):
    """Exit code, output and report body of a usage error, then search,
    construct and classify commands, run in turn in one process, each on a
    fresh parser cache or not; a construct with no --params runs before and
    after one with them. The commands are the same strings either way: each
    writes under a relative --out-dir in root."""
    argvs = [
        ["classify", "--group", "cyclic:6", "--subset", "0,1,2", "--kappa", "x"],
        ["search", "--group", "dihedral:4", "--kappa", "3", "--mode", "res-left"],
        ["construct", "--construction", "c2-ds"],
        ["classify", "--group", "cyclic:6", "--subset", "0,1,2", "--kappa", "3"],
        ["construct", "--construction", "c2-ds", "--params", "marks=b,a,a"],
        ["construct", "--construction", "c2-ds"],
    ]
    root.mkdir()
    monkeypatch.chdir(root)
    got = []
    for i, argv in enumerate(argvs):
        if fresh:
            cli._build_parser.cache_clear()
        code = main([*argv, "--out-dir", f"runs{i}"])
        out, err = capsys.readouterr()
        body = None
        if Path(f"runs{i}").exists():
            (run,) = Path(f"runs{i}").iterdir()
            body = json.loads((run / "report.json").read_text())["report"]
            out = out.replace(str(run), "RUN")
        got.append((code, out, err, body))
    return got


def test_reused_parsers_give_what_fresh_ones_give(tmp_path, capsys, monkeypatch):
    reused = reused_parser_outcomes(tmp_path / "reused", capsys, monkeypatch, fresh=False)
    fresh = reused_parser_outcomes(tmp_path / "fresh", capsys, monkeypatch, fresh=True)
    assert [code for code, *_ in reused] == [2, 0, 0, 0, 0, 0]
    assert reused == fresh


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
        # 200,001 words, within the word limit, but r(r+1) = 10**10 letters
        (["c1-rank1", "--radius", "100000"],
         "ball of rank 1, radius 100000 has at least 16004000 letters (limit 16000000)"),
    ],
    ids=[
        "adversary-radius", "radius", "s-set-m", "thm3-m", "c1-split3-m", "s-set-negative-m",
        "rank1-letters",
    ],
)
def test_huge_rank_or_radius_is_refused_before_the_build(argv, message, tmp_path, cap_memory):
    # each of these once ran until killed; the rank and the word and letter
    # counts are now checked before any letter set or ball is built, and a
    # child with a timeout and a capped address space turns a regression
    # into a failure rather than a hang
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


@pytest.mark.parametrize(
    "argv, order",
    [
        (["classify", "--group", f"cyclic:{HUGE}", "--subset", "0", "--kappa", "2"], int(HUGE)),
        (["search", "--group", f"dihedral:{HUGE}", "--kappa", "2", "--mode", "res-left"],
         2 * int(HUGE)),
        (["classify", "--group", f"product:cyclic:{HUGE}+cyclic:2", "--subset", "0",
          "--kappa", "2"], int(HUGE)),
        (["classify", "--group", "product:cyclic:8+cyclic:9", "--subset", "0", "--kappa", "2"],
         72),
    ],
    ids=["cyclic", "dihedral", "product-factor", "product"],
)
def test_huge_group_order_is_refused_before_the_table(argv, order, tmp_path, cap_memory):
    # the order is bounded before any table or label list is built; a child
    # with a timeout and a capped address space turns a regression into a
    # failure rather than a hang or a MemoryError
    got = subprocess.run(
        [sys.executable, "-m", "kappasets", *argv, "--out-dir", str(tmp_path / "runs")],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=cap_memory,
    )
    assert got.returncode == 2
    assert got.stderr.splitlines() == [
        f"error: order {order} exceeds the configured maximum 64"
    ]
    assert got.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [["classify", "--group", "cyclic:4", "--subset", "0", "--kappa", "2"],
     ["verify", "--suite", "thm3"]],
    ids=["classify", "verify"],
)
def test_an_unwritable_out_dir_is_a_usage_error(argv, tmp_path, capsys):
    # the claims run, but a regular file cannot hold the report directory:
    # one error line and exit 2, not a traceback and the claim-failure code
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main([*argv, "--out-dir", str(afile)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write the report under {str(afile)!r}: ")
    assert len(err.splitlines()) == 1
    assert afile.read_text() == ""


@pytest.mark.parametrize(
    "argv",
    [["classify", "--group", "dihedral:12", "--subset", "1,2,5,6,8,13,14,15,18,20,21,22",
      "--kappa", "4"],
     ["verify", "--suite", "all"]],
    ids=["classify", "verify"],
)
@pytest.mark.parametrize("under", ["", "deeper/still"])
def test_an_unwritable_out_dir_is_refused_before_any_claim(argv, under, tmp_path, capsys,
                                                            monkeypatch):
    # a regular file, or a path under one, is refused right after parsing:
    # no classifier and no suite runs
    def no_claim(*args, **kwargs):
        raise AssertionError("a claim ran")

    for name in ("is_large", "is_thick", "is_small", "run_suite"):
        monkeypatch.setattr(cli, name, no_claim)
    afile = tmp_path / "afile"
    afile.write_text("")
    root = str(afile / under) if under else str(afile)
    assert main([*argv, "--out-dir", root]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: cannot write the report under {root!r}: [Errno 20] Not a directory: "
        f"{str(afile)!r}\n"
    )


def test_a_root_to_be_made_is_not_made_by_a_usage_error(tmp_path, capsys):
    root = tmp_path / "new" / "runs"
    assert main(["classify", "--group", "cyclic:x", "--subset", "0", "--kappa", "2",
                 "--out-dir", str(root)]) == 2
    assert capsys.readouterr().err == "error: bad integer in group spec 'cyclic:x'\n"
    assert list(tmp_path.iterdir()) == []
    assert main(["classify", "--group", "cyclic:4", "--subset", "0", "--kappa", "2",
                 "--out-dir", str(root)]) == 0
    assert len(list(root.iterdir())) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,message",
    [
        # int() reads each of these; the one grammar is ASCII digits after at most one "-"
        (["classify", "--group", "cyclic:1_0", "--subset", "0", "--kappa", "2"],
         "error: bad integer in group spec 'cyclic:1_0'"),
        (["classify", "--group", "dihedral:+3", "--subset", "0", "--kappa", "2"],
         "error: bad integer in group spec 'dihedral:+3'"),
        (["classify", "--group", "cyclic:4", "--subset", "\u0663", "--kappa", "2"],
         "error: unknown element '\u0663' in --subset"),
        (["classify", "--group", "cyclic:4", "--subset", "\u00b2", "--kappa", "2"],
         "error: unknown element '\u00b2' in --subset"),
        (["classify", "--group", "cyclic:4", "--subset", "0", "--kappa", "\u0663"],
         "argument --kappa: invalid int value: '\u0663'"),
        (["classify", "--group", "cyclic:4", "--subset", "0", "--kappa", " 2"],
         "argument --kappa: invalid int value: ' 2'"),
        (["classify", "--group", "cyclic:4", "--subset", "0", "--kappa", "2",
          "--node-budget", "1_000"], "argument --node-budget: invalid int value: '1_000'"),
        (["search", "--group", "cyclic:8", "--kappa", "3", "--mode", "two-thick",
          "--cells", "+2"], "argument --cells: invalid int value: '+2'"),
        (["construct", "--construction", "thm3", "--radius", "\u0663"],
         "argument --radius: invalid int value: '\u0663'"),
        (["construct", "--construction", "s-set", "--params", "m=1_0"],
         "error: s-set parameter m must be an integer, got '1_0'"),
        (["construct", "--construction", "thm3", "--params", "a1=x\u0663"],
         "error: cannot parse word literal 'x\u0663'"),
    ],
)
def test_integers_are_ascii_digits(argv, message, tmp_path, capsys):
    assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(message), err
    assert not (tmp_path / "runs").exists()


def test_a_group_file_holds_ascii_integers(tmp_path, capsys):
    table = tmp_path / "c2.txt"
    table.write_text("2\n0 1\n1 0\n")
    assert run_cli(["classify", "--group", f"file:{table}", "--subset", "0", "--kappa", "2"],
                   tmp_path) == 0
    table.write_text("2\n0 1\n1 0_0\n")
    assert run_cli(["classify", "--group", f"file:{table}", "--subset", "0", "--kappa", "2"],
                   tmp_path) == 2
    assert capsys.readouterr().err.endswith(f"group file {str(table)!r} has non-integer entries\n")


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


def test_two_sided_thick_sweep_memory_stays_bounded(tmp_path):
    # the full set's C(24, 9) maximal test sets are decided by the count,
    # one node per entry of the two-sided table, and four are kept
    argv = [
        sys.executable, "-m", "kappasets", "classify", "--group", "symmetric:4",
        "--subset", ",".join(map(str, range(24))), "--kappa", "10", "--sides", "two-sided",
        "--variant", "witness-in-G", "--out-dir", str(tmp_path / "runs"),
    ]
    got = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, *argv], capture_output=True, text=True
    )
    assert got.returncode == 0, got.stderr
    peak_kb, out = got.stdout.split("\n", 1)
    assert int(peak_kb) < 64 * 1024, out
    thick = out.split("[claim ")[2].splitlines()
    assert f"nodes: {24 * 25 // 2}" in thick
    assert [line for line in thick if line.startswith("detail: ")][0].endswith(
        f"(+{math.comb(24, 9) - 4} more)"
    )


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
