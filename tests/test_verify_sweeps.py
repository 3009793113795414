"""The tabulated word sweeps of the verify suites against their direct loops.

The oracles below are the direct sweeps the tabulated checks replaced: one
ds_conjugate per (g, x) pair, one rank1_cell_of_int call per window cell,
and one end-letter test per ball word. Each check must agree with its
oracle on the outcome, the first counterexample, and the nodes spent. The
tests at the end hold the suites to one node budget per claim.
"""

import subprocess
import sys
from operator import getitem

import pytest

from kappasets import suites, words
from kappasets.classify import NodeCounter
from kappasets.constructions import rank1_cell_of_int
from kappasets.words import (
    ds_concat,
    ds_conjugate,
    ds_inverse,
    ds_support,
    enumerate_ball,
    enumerate_ds_ball,
    format_word,
)

BIG = 10**9


def old_ds_conjugate(x, g):
    return ds_concat(ds_concat(ds_inverse(g), x), g)


def oracle_c2_support(counter):
    dsball = enumerate_ds_ball((2, 1), 3)
    for g in dsball:
        for x in dsball:
            counter.spend()
            if ds_support(ds_conjugate(x, g)) != ds_support(x):
                return False, f"support moved for x={x} under g={g}"
    return True, f"conjugation preserves support on all {len(dsball)}^2 pairs (ranks 2+1, radius 3)"


def oracle_c1_rank1_blocks(counter, cell_of=rank1_cell_of_int):
    for v in range(1, 8193):
        if cell_of(-v) != cell_of(v):
            return False, f"not mirrored at {v}"
    checked = 0
    for h in range(1, 9):
        for k in range(1, 13):
            if 2**k <= 2 * h:
                continue
            for nval in range(2**k + h + 1, 2 ** (k + 1) - h):
                cell = cell_of(nval)
                for m in range(nval - h, nval + h + 1):
                    if cell_of(m) != cell:
                        return False, f"window at n={nval}, h={h} touches the other cell"
                checked += 1
    return True, f"{checked} interior points have monochromatic translate windows"


def oracle_thm3_suffix(b1):
    for w in enumerate_ball(4, 4).words:
        if b1(w) != (bool(w) and abs(w[-1]) - 1 in (0, 1)):
            return False, f"membership not a function of the last letter at {format_word(w)}"
    return True, "cell membership depends only on the last letter, radius-4 sweep"


def oracle_split3_endpoints(b1):
    for w in enumerate_ball(3, 5).words:
        from_data = bool(w) and abs(w[0]) - 1 in (1, 2) and abs(w[-1]) - 1 in (1, 2)
        if b1(w) != from_data:
            return False, f"membership not a function of the endpoints at {format_word(w)}"
    return True, "cell-0 membership depends only on the endpoint letters, radius-5 sweep"


def oracle_rank2_factors(b1):
    mixed = {(1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1)}
    marked = mixed | {(1, 1), (-1, -1)}
    for w in enumerate_ball(2, 6).words:
        if len(w) < 2:
            if b1(w):
                return False, f"short word in cell 0: {format_word(w)}"
            continue
        if b1(w) != (w[:2] in marked and w[-2:] in marked):
            return False, f"membership not a function of the end factors at {format_word(w)}"
    return True, "cell-0 membership depends only on the length-2 end factors, radius-6 sweep"


def run(check, *args):
    counter = NodeCounter(BIG)
    return check(counter, *args), counter.spent


def conjugate_dropping(pair):
    """words.conjugate, except that it gives the identity for one (w, h) pair."""
    real = words.conjugate
    return lambda w, h: () if (w, h) == pair else real(w, h)


def cell_flipped_at(flip):
    """rank1_cell_of_int with the colour of +-flip swapped (still mirrored)."""
    return lambda v: rank1_cell_of_int(v) ^ (abs(v) == flip)


def test_component_tables_match_the_direct_conjugate():
    ball = enumerate_ds_ball((2, 1), 2)
    assert len(ball) == 85
    components = [list(dict.fromkeys(column)) for column in zip(*ball)]
    for g in ball:
        tables = suites._component_conjugates(components, g)
        for x in ball:
            expected = old_ds_conjugate(x, g)
            assert tuple(map(getitem, tables, x)) == expected
            assert ds_conjugate(x, g) == expected


def test_ds_conjugate_rejects_mismatched_summands():
    with pytest.raises(ValueError):
        ds_conjugate(((1,), ()), ((1,),))


@pytest.mark.parametrize("pair", [((1,), (2,)), ((-1,), (1,)), ((1, 2), (-1,))])
def test_c2_support_reports_the_oracle_counterexample(monkeypatch, pair):
    # a conjugate that drops to the identity for one (word, component) pair
    # moves a support; both sweeps must stop at the same first (g, x)
    broken = conjugate_dropping(pair)
    monkeypatch.setattr(words, "conjugate", broken)
    monkeypatch.setattr(suites, "conjugate", broken)
    got, spent = run(suites._check_c2_support)
    want, want_spent = run(oracle_c2_support)
    assert got[0] is False and got == want
    assert got[1].startswith("support moved for x=")
    assert spent == want_spent


def test_c2_support_first_counterexample_is_pinned(monkeypatch):
    monkeypatch.setattr(suites, "conjugate", conjugate_dropping(((1,), (2,))))
    (ok, detail), spent = run(suites._check_c2_support)
    assert not ok
    assert detail == "support moved for x=((1,), ()) under g=((2,), ())"
    assert spent == 21 * 371 + 8


def cell0_flipped_at(build, word, built):
    """A partition builder whose cell 0 holds word exactly when the real
    cell 0 does not, and agrees with it on every other word (word None
    flips nothing); each partition it builds is appended to built."""

    def flipped(*args, **kwargs):
        part = build(*args, **kwargs)
        real = part.cells[0]
        built.append(part.replace(cells=(lambda w: real(w) != (w == word), *part.cells[1:])))
        return built[-1]

    return flipped


#: (check, the builder it reads, the direct loop it replaced)
END_RULE_SWEEPS = {
    "thm3": (suites._check_thm3_suffix_stability, "thm3_partition", oracle_thm3_suffix),
    "split3": (suites._check_c1_split3_endpoint_stability, "split3_partition", oracle_split3_endpoints),
    "rank2": (suites._check_c1_rank2_factor_stability, "rank2_partition", oracle_rank2_factors),
}


@pytest.mark.parametrize(
    "sweep,word,detail",
    [
        ("thm3", None, "cell membership depends only on the last letter, radius-4 sweep"),
        ("thm3", (), "membership not a function of the last letter at 1"),
        ("thm3", (3, -4, 1), "membership not a function of the last letter at cd'a"),
        ("thm3", (1, 2, -3, -4), "membership not a function of the last letter at abc'd'"),
        ("split3", None, "cell-0 membership depends only on the endpoint letters, radius-5 sweep"),
        ("split3", (2,), "membership not a function of the endpoints at b"),
        ("split3", (1, 3, 3, -2, 1), "membership not a function of the endpoints at accb'a"),
        ("rank2", None, "cell-0 membership depends only on the length-2 end factors, radius-6 sweep"),
        ("rank2", (), "short word in cell 0: 1"),
        ("rank2", (-2,), "short word in cell 0: b'"),
        ("rank2", (1, 2), "membership not a function of the end factors at ab"),
        ("rank2", (2, 2, -1, -1, 2, 1), "membership not a function of the end factors at bba'a'ba"),
    ],
)
def test_end_rule_sweeps_report_the_flipped_word(monkeypatch, sweep, word, detail):
    # a cell 0 flipped at one word breaks the end-letter rule there and
    # nowhere else, so the sweep and its direct loop both stop at that word
    check, builder, oracle = END_RULE_SWEEPS[sweep]
    built = []
    monkeypatch.setattr(suites, builder, cell0_flipped_at(getattr(suites, builder), word, built))
    got = run(check)
    assert got == ((word is None, detail), 0)
    assert got[0] == oracle(built[0].cells[0])


def test_rank1_blocks_match_the_oracle():
    assert run(suites._check_c1_rank1_blocks) == run(oracle_c1_rank1_blocks)


@pytest.mark.parametrize("flip", [100, 5000, 8191])
def test_rank1_blocks_report_the_oracle_window(monkeypatch, flip):
    # flipping the colour of +-flip keeps the blocks mirrored but breaks
    # every window that reaches flip
    flipped = cell_flipped_at(flip)
    monkeypatch.setattr(suites, "rank1_cell_of_int", flipped)
    got = run(suites._check_c1_rank1_blocks)
    assert got == run(oracle_c1_rank1_blocks, flipped)
    assert got[0][0] is False and got[0][1].startswith("window at n=")


def test_rank1_blocks_first_window_is_pinned(monkeypatch):
    monkeypatch.setattr(suites, "rank1_cell_of_int", cell_flipped_at(100))
    (ok, detail), _ = run(suites._check_c1_rank1_blocks)
    assert not ok
    assert detail == "window at n=99, h=1 touches the other cell"


@pytest.mark.parametrize("budget,status", [(137_640, "inconclusive"), (137_641, "pass")])
def test_support_preservation_budget_boundary(budget, status):
    # one node per (g, x) pair: the budget boundary sits at exactly 371^2
    records = suites.run_suite("comment2", budget)
    (record,) = [r for r in records if r.claim_id == "comment2.support-preservation"]
    assert (record.status, record.nodes) == (status, 137_641)


@pytest.mark.parametrize(
    "suite,budget",
    [("oracle", 1), ("oracle", 5), ("oracle", 50), ("oracle", 2000), ("duality", 1), ("duality", 100)],
)
def test_a_small_budget_never_refutes(suite, budget):
    # the searches nested in a claim spend from the claim's counter, so
    # running out in one is inconclusive, and a pass stays within budget
    records = suites.run_suite(suite, budget)
    assert [r.claim_id for r in records if r.status == "fail"] == []
    assert [r.claim_id for r in records if r.status == "pass" and r.nodes > budget] == []


def test_suite_table_builds_no_group_at_import():
    code = "from kappasets import suites; print(suites.grid_group.cache_info().currsize)"
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout == "0\n"


def test_a_negative_budget_is_rejected():
    for suite in ("s-set", "all"):
        with pytest.raises(ValueError, match="node budget must be >= 0"):
            suites.run_suite(suite, -1)
    # the word sweeps spend no nodes, so a budget of 0 passes them
    assert {r.status for r in suites.run_suite("s-set", 0)} == {"pass"}
