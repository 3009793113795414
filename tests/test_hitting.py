"""The hitting-set kernel against plain enumeration, plus node-budget
regressions that an enumerating search cannot meet."""

import itertools
import random

import pytest

from kappasets.classify import (
    BudgetExceeded,
    NodeCounter,
    _cover_masks,
    _dom_masks,
    _min_cover,
    _min_hitting,
    _thick_profile,
    is_small,
)
from kappasets.groups import Subset, bits, build_group, mask_of
from kappasets.resolvability import res_search
from kappasets.suites import GRID_SPECS

ONE_SIDES = ("left", "right")
VARIANTS = ("witness-in-A", "witness-in-G")
#: Group families of orders 9-14, as swept by the classify command.
LARGER_SPECS = (
    "cyclic:9",
    "product:cyclic:3+cyclic:3",
    "cyclic:10",
    "dihedral:5",
    "cyclic:12",
    "dihedral:6",
    "product:symmetric:3+cyclic:2",
    "cyclic:14",
    "dihedral:7",
)


def oracle_cover(G, amask, side):
    """(size, lex)-least F covering G, by enumerating subsets by size."""
    if amask == 0:
        return None
    n = G.order
    covers = _cover_masks(G, amask, side)
    for s in range(-(-n // amask.bit_count()), n + 1):
        for combo in itertools.combinations(range(n), s):
            u = 0
            for f in combo:
                u |= covers[f]
            if u == G.full_mask:
                return (s, combo)
    raise AssertionError("no cover of a nonempty subset")


def oracle_profile(G, amask, side, variant):
    """(lmax, least failing F), by enumerating test sets by size."""
    n = G.order
    if variant == "witness-in-A" and amask == 0:
        return (-1, ())
    candidates = list(bits(amask)) if variant == "witness-in-A" else list(range(n))
    negs = [~d for d in _dom_masks(G, amask, side, candidates)]
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            fmask = mask_of(combo)
            if not any(fmask & neg == 0 for neg in negs):
                return (size - 1, combo)
    return (n - 1, None)


def assert_matches_oracle(G, amask):
    counter = NodeCounter(10**9)
    for side in ONE_SIDES:
        assert _min_cover(G, amask, side, counter) == oracle_cover(G, amask, side), (side, amask)
        for variant in VARIANTS:
            got = _thick_profile(G, amask, side, variant, counter)
            assert got == oracle_profile(G, amask, side, variant), (side, variant, amask)


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_every_grid_subset_matches_enumeration(spec):
    G = build_group(spec)
    for amask in range(G.full_mask + 1):
        assert_matches_oracle(G, amask)


def test_sampled_larger_subsets_match_enumeration():
    rng = random.Random(14085607)
    groups = [build_group(spec) for spec in LARGER_SPECS]
    for i in range(198):
        G = groups[i % len(groups)]
        n = G.order
        kind = i // len(groups) % 3
        if kind == 0:  # sparse
            amask = mask_of(rng.sample(range(n), rng.randint(1, 6)))
        elif kind == 1:  # co-sparse
            amask = G.full_mask ^ mask_of(rng.sample(range(n), rng.randint(0, 6)))
        else:
            amask = rng.randint(0, G.full_mask)
        assert_matches_oracle(G, amask)


def test_kernel_edge_cases():
    counter = NodeCounter(10**6)
    assert _min_hitting(3, [0b01, 0b10, 0b11], 0, counter) == ()
    assert _min_hitting(2, [0b01, 0b01], 0b11, counter) is None
    # greedy takes {2} first and needs three sets; two suffice
    covers = [0b000111, 0b111000, 0b011110, 0b100000, 0b000001]
    assert _min_hitting(5, covers, 0b111111, counter) == (0, 1)
    # the lex-least of several optimal covers
    assert _min_hitting(4, [0b0011, 0b1100, 0b0110, 0b1001], 0b1111, counter) == (0, 1)


def test_kernel_spends_budget():
    covers = [1 << (i % 7) | 1 << ((3 * i + 1) % 7) for i in range(7)]
    with pytest.raises(BudgetExceeded):
        _min_hitting(7, covers, (1 << 7) - 1, NodeCounter(1))


def test_symmetric4_resolvability_within_a_small_budget():
    out = res_search(build_group("symmetric:4"), 12, "left", node_budget=10**6)
    assert out.cells == 8 and out.optimal


def test_is_small_skips_sets_that_cannot_witness():
    G = build_group("cyclic:14")
    got = is_small(G, Subset.empty(14), 3, node_budget=10**5)
    assert got.verdict is True
    assert 0 < got.nodes <= 10**5


def test_two_sided_small_reports_both_parts():
    # fresh tables, so that no part is answered from another's cache
    A = Subset.empty(6)
    both = is_small(build_group("cyclic:6"), A, 3, "two-sided")
    parts = [is_small(build_group("cyclic:6"), A, 3, side) for side in ONE_SIDES]
    assert both.verdict is True and all(p.verdict for p in parts)
    assert both.nodes == sum(p.nodes for p in parts) > 0
