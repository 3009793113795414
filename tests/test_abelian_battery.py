"""The classify battery in an abelian group: a right claim reports the left
claim's verdict, witness and nodes once its witness is re-checked on the
right, and the side first in --sides is the one searched."""

import collections

import pytest

from kappasets import cli
from kappasets import classify as cl
from kappasets.groups import Subset, build_group
from kappasets.report import RunReport
from kappasets.suites import GRID_SPECS

ABELIAN_SPECS = [spec for spec in GRID_SPECS if build_group(spec).is_abelian()]


def test_the_grid_holds_five_abelian_groups():
    assert ABELIAN_SPECS == [
        "cyclic:4", "cyclic:5", "cyclic:6", "cyclic:8", "product:cyclic:2+cyclic:2"
    ]


def battery(spec, subset, kappa, *options):
    """(claim_id, status, detail, nodes) of each claim of one classify command."""
    args = cli._parse_args(
        ["classify", "--group", spec, "--subset", subset, "--kappa", str(kappa), *options]
    )
    rep = RunReport("")
    args.fn(args, rep)
    return [(c.claim_id, c.status, c.detail, c.nodes) for c in rep.claims]


def subsets(spec):
    n = build_group(spec).order
    for m in range(1 << n):
        yield ",".join(str(i) for i in range(n) if m >> i & 1)


def on_side(claims, side):
    """The claims of one side, their ids without the side."""
    return [(c[0].replace(f".{side}", ""), *c[1:]) for c in claims if f".{side}" in c[0]]


@pytest.mark.parametrize("spec", ABELIAN_SPECS)
def test_a_derived_right_claim_is_the_searched_one(spec):
    # the battery derives its right claims from the left ones; --sides right
    # searches them: status, detail and nodes agree, at budgets that leave
    # claims inconclusive too
    n = build_group(spec).order
    for subset in subsets(spec):
        for kappa in sorted({2, 3, n}):
            for budget in ([], ["--node-budget", "0"], ["--node-budget", "1"], ["--node-budget", "5"]):
                derived = on_side(battery(spec, subset, kappa, *budget), "right")
                searched = on_side(battery(spec, subset, kappa, "--sides", "right", *budget), "right")
                assert derived == searched, (subset, kappa, budget)


def test_right_claims_in_a_nonabelian_group_are_searched():
    # {0,1,2,4} in dihedral:4 at kappa 3 has a left and a right cover, and
    # least failing test sets, that differ: each side reports its own
    left, right = (battery("dihedral:4", "0,1,2,4", 3, "--sides", s) for s in ("left", "right"))
    both = battery("dihedral:4", "0,1,2,4", 3, "--sides", "left,right")
    assert both == left + right
    differ = [a[0] for a, b in zip(on_side(left, "left"), on_side(right, "right")) if a != b]
    assert differ == ["classify.large", "classify.thick.witness-in-A", "classify.thick.witness-in-G"]


def test_the_recheck_refuses_a_left_witness_that_fails_on_the_right(monkeypatch):
    # dihedral:4 forced through the derivation: the left witness is
    # re-checked on the right, and every kind of witness fails for some subset
    monkeypatch.setattr(cl, "abelian", lambda G: True)
    raised = collections.Counter()
    for subset in subsets("dihedral:4"):
        for kappa in (2, 3, 4):
            try:
                battery("dihedral:4", subset, kappa, "--sides", "left,right")
            except RuntimeError as e:
                raised[str(e)] += 1
    assert set(raised) == {
        f"{notion} witness failed re-verification on the right side"
        for notion in ("large", "thick", "small")
    }


def test_each_witness_kind_is_rechecked():
    # a left verdict on dihedral:4 relabelled to the right: a cover, a
    # thick=True map, a failing test set and a failing large L each fail
    # for some subset, and the verdicts that pass are returned relabelled
    G = build_group("dihedral:4")
    failed = set()
    for m in range(1, 1 << G.order):
        A = Subset(G.order, m)
        for kappa in (2, 3, 4):
            verdicts = [
                cl.is_large(G, A, kappa, "left"),
                *(cl.is_thick(G, A, kappa, "left", variant) for variant in cl.VARIANTS),
                cl.is_small(G, A, kappa, "left"),
            ]
            for v in verdicts:
                try:
                    assert cl.mirrored(G, A, v, "right") == v.replace(side="right")
                except RuntimeError:
                    failed.add((v.notion, v.verdict))
    assert failed == {("large", True), ("thick", True), ("thick", False), ("small", False)}


@pytest.mark.parametrize("spec", ABELIAN_SPECS)
def test_the_side_first_in_sides_is_searched(spec):
    # right,left searches the right claims, as --sides right does, and the
    # left claims read as a left search alone does: the two sides share no
    # memo entry, so this is what both sides searched gave
    n = build_group(spec).order
    for subset in subsets(spec):
        for kappa in sorted({2, 3, n}):
            both = battery(spec, subset, kappa, "--sides", "right,left")
            assert on_side(both, "right") == on_side(battery(spec, subset, kappa, "--sides", "right"), "right")
            assert on_side(both, "left") == on_side(battery(spec, subset, kappa, "--sides", "left"), "left")
            # after two-sided, whose small claim runs the left scan, the left
            # claims may spend less; the right claims report what they report
            late = battery(spec, subset, kappa, "--sides", "two-sided,left,right")
            assert on_side(late, "right") == on_side(late, "left"), (subset, kappa)


def test_a_right_claim_after_two_sided_reports_the_left_nodes():
    # small.two-sided runs the left scan, so small.left reads its memo and
    # spends 1 node; the right claim reports that verdict, nodes included,
    # where a right scan of its own spends 3
    late = battery("cyclic:8", "1", 3, "--sides", "two-sided,left,right")
    small = [c for c in late if c[0].startswith("classify.small.")]
    assert [c[3] for c in small] == [3, 1, 1]
    assert battery("cyclic:8", "1", 3, "--sides", "right")[-1][3] == 3
