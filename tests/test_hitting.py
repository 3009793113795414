"""The hitting-set kernel and the two-sided scans against plain
enumeration, the public size queries against the same oracles, the
translate size tables against fresh groups, the thick=True
re-verification sweep against a per-(F, x) check, and node-budget
regressions that an enumerating search cannot meet."""

import ast
import functools
import itertools
import math
import random
from pathlib import Path

import pytest

from kappasets import classify
from kappasets.classify import (
    BudgetExceeded,
    NodeCounter,
    _caches,
    _cover_bounds,
    _covers,
    _least_translating,
    _min_cover,
    _sweep_translates,
    _thick_profile,
    _thick_witness_map,
    cover_within,
    is_large,
    is_small,
    is_thick,
    min_cover_size,
    thick_lmax,
)
from kappasets.groups import Subset, bits, build_group, mask_of, product_set
from kappasets.resolvability import res_search
from kappasets.suites import GRID_SPECS

ONE_SIDES = ("left", "right")
SIDES = (*ONE_SIDES, "two-sided")
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


# The oracles read the multiplication table through these definitions alone,
# never through the translate or pair tables the searches build.


def cover_masks(G, amask, side):
    """Per f, the mask of f*A (left) or A*f (right)."""
    mul = G.mul
    if side == "left":
        return [mask_of(mul[f][a] for a in bits(amask)) for f in range(G.order)]
    return [mask_of(mul[a][f] for a in bits(amask)) for f in range(G.order)]


def dom_masks(G, amask, side, candidates):
    """Per candidate x, the mask of f with f*x (left) or x*f (right) in A."""
    mul = G.mul
    if side == "left":
        return [mask_of(f for f in range(G.order) if amask >> mul[f][x] & 1) for x in candidates]
    return [mask_of(f for f in range(G.order) if amask >> mul[x][f] & 1) for x in candidates]


def pair_cover_table(G, amask):
    """Per g, bit f1*n+f2 set when f1*a*f2 = g for some a in A."""
    n = G.order
    mul = G.mul
    out = [0] * n
    for f1, f2 in itertools.product(range(n), repeat=2):
        for a in bits(amask):
            out[mul[mul[f1][a]][f2]] |= 1 << (f1 * n + f2)
    return out


def pair_thick_table(G, amask):
    """Per x, bit f1*n+f2 set when f1*x*f2 lies in A."""
    n = G.order
    mul = G.mul
    return [
        mask_of(
            f1 * n + f2
            for f1, f2 in itertools.product(range(n), repeat=2)
            if amask >> mul[mul[f1][x]][f2] & 1
        )
        for x in range(n)
    ]


def pair_mask(n, combo):
    """Bit f1*n+f2 set for f1, f2 in combo."""
    fmask = mask_of(combo)
    pm = 0
    for f in combo:
        pm |= fmask << (n * f)
    return pm


def commutes(G):
    """Every a*b equals b*a in the table."""
    return all(G.mul[a][b] == G.mul[b][a] for a in range(G.order) for b in range(G.order))


def least_pairs(G, per, need):
    """Least s >= 1 whose pairs (f1, f2), s^2 of them or s(s+1)/2 when G
    commutes, times per reach need; |G| + 1 when no s up to |G| does."""
    pairs = (lambda s: s * (s + 1) // 2) if commutes(G) else (lambda s: s * s)
    return next((s for s in range(1, G.order + 1) if pairs(s) * per >= need), G.order + 1)


def oracle_pair_cover(G, amask, counter, start=1):
    """(size, lex)-least F with F*A*F = G, one node per F tried from size
    start up."""
    if amask == 0:
        return None
    n = G.order
    pair = pair_cover_table(G, amask)
    for s in range(start, n + 1):
        for combo in itertools.combinations(range(n), s):
            counter.spend()
            pm = pair_mask(n, combo)
            if all(pm & p for p in pair):
                return (s, combo)
    raise AssertionError("no two-sided cover of a nonempty subset")


def oracle_pair_profile(G, amask, variant, counter, start=1):
    """Two-sided (lmax, least failing F), one node per F tried from size
    start up."""
    n = G.order
    if variant == "witness-in-A" and amask == 0:
        return (-1, ())
    candidates = list(bits(amask)) if variant == "witness-in-A" else list(range(n))
    table = pair_thick_table(G, amask)
    negs = [~table[x] for x in candidates]
    for size in range(start, n):
        for combo in itertools.combinations(range(n), size):
            counter.spend()
            pm = pair_mask(n, combo)
            if not any(pm & neg == 0 for neg in negs):
                return (size - 1, combo)
    return (n - 1, None)


def oracle_cover(G, amask, side):
    """(size, lex)-least F covering G, by enumerating subsets by size."""
    if side == "two-sided":
        return oracle_pair_cover(G, amask, NodeCounter(10**9))
    if amask == 0:
        return None
    n = G.order
    covers = cover_masks(G, amask, side)
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
    if side == "two-sided":
        return oracle_pair_profile(G, amask, variant, NodeCounter(10**9))
    n = G.order
    if variant == "witness-in-A" and amask == 0:
        return (-1, ())
    candidates = list(bits(amask)) if variant == "witness-in-A" else list(range(n))
    negs = [~d for d in dom_masks(G, amask, side, candidates)]
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            fmask = mask_of(combo)
            if not any(fmask & neg == 0 for neg in negs):
                return (size - 1, combo)
    return (n - 1, None)


def assert_matches_oracle(G, amask):
    counter = NodeCounter(10**9)
    for side in SIDES:
        want = oracle_cover(G, amask, side)
        assert _min_cover(G, amask, side, counter) == want, (side, amask)
        size = G.order + 1 if want is None else want[0]
        assert min_cover_size(G, amask, side, counter) == size, (side, amask)
        for variant in VARIANTS:
            want = oracle_profile(G, amask, side, variant)
            got = _thick_profile(G, amask, side, variant, counter)
            assert got == want, (side, variant, amask)
            assert thick_lmax(G, amask, side, variant, counter) == want[0], (side, variant, amask)


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_every_grid_subset_matches_enumeration(spec):
    G = build_group(spec)
    for amask in range(G.full_mask + 1):
        assert_matches_oracle(G, amask)


def two_sided_searches(G, amask):
    """(name, search, oracle, start) for the two-sided cover and thickness
    scans of A, search and oracle each called as f(G, counter); each oracle
    starts at its counting floor, start: pairs(s)*|A| >= |G| for the cover,
    pairs(s)*(|G| - |A|) >= |candidates| for the thickness."""
    n, count = G.order, amask.bit_count()
    start = least_pairs(G, count, n)
    yield (
        "cover",
        lambda G, c: _min_cover(G, amask, "two-sided", c),
        lambda G, c, s=start: oracle_pair_cover(G, amask, c, s),
        start,
    )
    for variant in VARIANTS:
        start = least_pairs(G, n - count, count if variant == "witness-in-A" else n)
        yield (
            variant,
            lambda G, c, v=variant: _thick_profile(G, amask, "two-sided", v, c),
            lambda G, c, v=variant, s=start: oracle_pair_profile(G, amask, v, c, s),
            start,
        )


def last_index_cuts(n, start, spent):
    """Budgets that run out at the first and at the last F of a walk's
    last-index loop, the loop over F[-1] once F[-2] is fixed: of the first
    spent F of start elements and up, by size then lex, the last F with
    F[-1] = F[-2] + 1 and the last with F[-1] = n - 1. An F of fewer than
    two elements has no such loop."""
    tried = itertools.chain.from_iterable(itertools.combinations(range(n), s) for s in range(start, n + 1))
    firsts, lasts = [], []
    for i, F in enumerate(itertools.islice(tried, spent)):
        if len(F) >= 2:
            if F[-1] == F[-2] + 1:
                firsts.append(i)
            if F[-1] == n - 1:
                lasts.append(i)
    return {*firsts[-1:], *lasts[-1:]}


def test_two_sided_scans_spend_one_node_per_set_tried():
    # a fresh group per search, so that none is answered from a cache; one
    # group of order 8 that commutes and one that does not
    for spec in ("dihedral:4", "product:cyclic:2+cyclic:4"):
        G = build_group(spec)
        for amask in range(G.full_mask + 1):
            for name, search, oracle, start in two_sided_searches(G, amask):
                got, want = NodeCounter(10**9), NodeCounter(10**9)
                search(build_group(spec), got)
                oracle(G, want)
                case = (spec, amask, name)
                assert got.spent == want.spent, case
                # one node short, half the nodes, or the nodes before the
                # first or the last F of a last-index loop run out at the
                # same F
                cuts = {want.spent - 1, want.spent // 2, *last_index_cuts(G.order, start, want.spent)}
                for budget in cuts if want.spent else ():
                    assert spent_until_exhausted(
                        lambda c: search(build_group(spec), c), budget
                    ) == spent_until_exhausted(lambda c: oracle(G, c), budget) == budget + 1, (
                        *case, budget
                    )


def test_the_walk_returns_the_first_empty_f_after_one_node_per_f():
    # random tables, one-sided (no pairs) and two-sided, against the F of one
    # size in lex order, each read as inter & cols[f] for f in F & pairs[f][l]
    # for f < l in F: the first F whose mask is empty is returned after one
    # node per F up to it, and every smaller budget runs out at the same F;
    # masks with each bit set at odds 1/2, 3/4 or 7/8 give early hits, late
    # hits and no hit at every depth, on both kinds
    rng = random.Random("sweep")
    n, full = 7, 0b11111
    for trial in range(60):
        ors = 1 + trial // 2 % 3

        def mask():
            return functools.reduce(int.__or__, [rng.randint(0, full) for _ in range(ors)])

        inter = mask()
        cols = [mask() for _ in range(n)]
        pairs = None if trial % 2 else [[mask() for _ in range(n)] for _ in range(n)]
        for depth in range(1, 5):
            order = list(itertools.combinations(range(n), depth))
            masks = [functools.reduce(int.__and__, [cols[f] for f in F], inter) for F in order]
            if pairs is not None:
                masks = [
                    functools.reduce(int.__and__, [pairs[f][l] for f, l in itertools.combinations(F, 2)], m)
                    for F, m in zip(order, masks)
                ]
            hit = next((i for i, m in enumerate(masks) if not m), None)
            case = (trial, depth)
            counter = NodeCounter(10**6)
            got = _sweep_translates((), depth, inter, cols, pairs, counter)
            assert got == (None if hit is None else order[hit]), case
            assert counter.spent == (len(order) if hit is None else hit + 1), case
            for budget in range(counter.spent):
                assert spent_until_exhausted(
                    lambda c: _sweep_translates((), depth, inter, cols, pairs, c), budget
                ) == budget + 1, (*case, budget)


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


#: The product shape of F*x (x*F, F*x*F) per side.
TRANSLATE_SHAPES = {"left": "FA", "right": "AF", "two-sided": "FAF"}


def translates_into(G, F, x, amask, side):
    """x translates F into A: F*x (x*F, F*x*F), formed by product_set, lies
    in A."""
    return not product_set(G, F, Subset(G.order, 1 << x), TRANSLATE_SHAPES[side]).mask & ~amask


def oracle_witness_map(G, amask, fsize, side, variant, counter):
    """For every maximal F in lex order, one node each, the least candidate
    that translates F by the raw definition, tried one (F, x) at a time."""
    n = G.order
    candidates = list(bits(amask)) if variant == "witness-in-A" else list(range(n))
    entries = []
    for combo in itertools.combinations(range(n), fsize):
        counter.spend()
        F = Subset.from_indices(n, combo)
        for x in candidates:
            if translates_into(G, F, x, amask, side):
                entries.append((F, x))
                break
        else:
            raise AssertionError(f"no translate of {combo} into a thick set")
    return tuple(entries)


def spent_until_exhausted(search, budget):
    counter = NodeCounter(budget)
    with pytest.raises(BudgetExceeded):
        search(counter)
    return counter.spent


def pigeonhole_holds(G, amask, fsize, side, variant):
    """With more maximal F than entries in the thickness table, the entries
    one F reads times the most candidates one entry excludes is below the
    number of candidates, so no F of fsize elements excludes them all. One
    side, an entry is an f, and it excludes the x with f*x (x*f) outside A;
    two-sided, an entry is a pair f1 <= f2, and it excludes the x with
    f1*x*f2 or f2*x*f1 outside A."""
    n, mul = G.order, G.mul
    candidates = list(bits(amask)) if variant == "witness-in-A" else list(range(n))
    if side == "two-sided":
        excluded = [
            sum(not (amask >> mul[mul[f1][x]][f2] & 1 and amask >> mul[mul[f2][x]][f1] & 1)
                for x in candidates)
            for f1 in range(n) for f2 in range(f1, n)
        ]
        reads = fsize * (fsize + 1) // 2
    else:
        doms = dom_masks(G, amask, side, candidates)
        excluded = [sum(not d >> f & 1 for d in doms) for f in range(n)]
        reads = fsize
    return math.comb(n, fsize) > len(excluded) and reads * max(excluded) < len(candidates)


@pytest.mark.parametrize("spec", [*GRID_SPECS, "cyclic:2", "cyclic:3"])
def test_witness_sweep_matches_the_raw_map(spec):
    # the count route spends one node per table entry, the walk one per F;
    # on cyclic:2 and cyclic:3 a thick=True witness has fewer maximal F
    # than SHOWN_TRANSLATES, which no GRID_SPECS case has
    G = build_group(spec)
    n = G.order
    routes = set()
    for amask in range(G.full_mask + 1):
        for side in SIDES:
            for variant in VARIANTS:
                lmax = thick_lmax(G, amask, side, variant, NodeCounter(10**9))
                for fsize in range(1, min(lmax, n - 1) + 1):
                    case = (amask, side, variant, fsize)
                    want_counter, got_counter = NodeCounter(10**9), NodeCounter(10**9)
                    want = oracle_witness_map(G, amask, fsize, side, variant, want_counter)
                    got = _thick_witness_map(G, amask, fsize, side, variant, got_counter)
                    assert got.shown == want[:4], case
                    assert got.total == len(got) == len(want), case
                    counted = pigeonhole_holds(G, amask, fsize, side, variant)
                    routes.add((side == "two-sided", counted))
                    entries = n * (n + 1) // 2 if side == "two-sided" else n
                    spent = entries if counted else want_counter.spent
                    assert got_counter.spent == spent, case
                    # one node short, half the nodes, or the nodes before the
                    # first or the last F of the walk's last-index loop run
                    # out at the same f or F as the oracle
                    cuts = () if counted else last_index_cuts(n, fsize, spent)
                    for budget in {spent - 1, spent // 2, *cuts}:
                        assert spent_until_exhausted(
                            lambda c: _thick_witness_map(G, amask, fsize, side, variant, c), budget
                        ) == budget + 1, (*case, budget)
                        assert counted or spent_until_exhausted(
                            lambda c: oracle_witness_map(G, amask, fsize, side, variant, c), budget
                        ) == budget + 1, (*case, budget)
    if spec in GRID_SPECS:
        # two-sided, the count can decide only once C(n, fsize) > n(n+1)/2
        assert routes >= {(False, False), (False, True), (True, False)}
        assert ((True, True) in routes) == (n == 8)


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_least_translating_matches_the_product_sets(spec):
    G = build_group(spec)
    n = G.order
    rng = random.Random(f"least-translating {spec}")
    amasks = [0, G.full_mask, *(rng.randint(0, G.full_mask) for _ in range(6))]
    # every F of 0-2 elements, and a sample of 3-6, where two-sided one
    # candidate's list holds up to 36 products
    fmasks = [mask_of(c) for size in range(3) for c in itertools.combinations(range(n), size)]
    fmasks += [mask_of(rng.sample(range(n), rng.randint(3, min(6, n)))) for _ in range(40)]
    for side in SIDES:
        for amask in amasks:
            for cand in (amask, G.full_mask):
                for fmask in fmasks:
                    F = Subset(n, fmask)
                    want = next((x for x in bits(cand) if translates_into(G, F, x, amask, side)), None)
                    got = _least_translating(G, fmask, cand, amask, side)
                    assert got == want, (side, amask, cand, fmask)


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_covers_matches_the_product_sets(spec):
    G = build_group(spec)
    n = G.order
    rng = random.Random(f"covers {spec}")
    pairs = [(0, 0), (0, G.full_mask), (G.full_mask, 0), (G.full_mask, G.full_mask)]
    pairs += [(rng.randint(0, G.full_mask), rng.randint(0, G.full_mask)) for _ in range(200)]
    # sparse F and A, where |F|*|A| < |G| <= |F*A*F| can hold
    pairs += [(mask_of(rng.sample(range(n), 2)), mask_of(rng.sample(range(n), 2))) for _ in range(100)]
    for fmask, amask in pairs:
        F, A = Subset(n, fmask), Subset(n, amask)
        for side in SIDES:
            want = product_set(G, F, A, TRANSLATE_SHAPES[side]).mask == G.full_mask
            assert _covers(G, F, A, side) == want, (side, fmask, amask)


@pytest.mark.parametrize("side", SIDES)
def test_the_empty_set_has_no_witness_in_a(side):
    # no candidate: the empty F already fails, at no node cost, on every side
    G = build_group("cyclic:6")
    got = is_thick(G, Subset.empty(6), 2, side, "witness-in-A")
    assert (got.verdict, got.witness, got.nodes) == (False, Subset.empty(6), 0)
    assert thick_lmax(G, 0, side, "witness-in-A", NodeCounter(0)) == -1
    assert _thick_profile(G, 0, side, "witness-in-A", NodeCounter(0)) == (-1, ())


def test_the_size_queries_refuse_an_unknown_side_or_variant():
    # unchecked, a misspelt variant reads as witness-in-G and any other side
    # as right, with bit rows kept under that side
    G, amask = build_group("dihedral:3"), 0b111
    sides = r"^side must be one of \('left', 'right', 'two-sided'\), got "
    variants = r"^variant must be one of \('witness-in-A', 'witness-in-G'\), got "
    for side in ("Left", "bogus"):
        with pytest.raises(ValueError, match=sides + repr(side)):
            min_cover_size(G, amask, side, NodeCounter(10**6))
        with pytest.raises(ValueError, match=sides + repr(side)):
            thick_lmax(G, amask, side, "witness-in-G", NodeCounter(10**6))
    with pytest.raises(ValueError, match=variants + "'in-A'"):
        thick_lmax(G, amask, "left", "in-A", NodeCounter(10**6))
    assert G not in _caches  # refused before any table was built
    assert thick_lmax(G, amask, "left", "witness-in-A", NodeCounter(10**6)) == 0
    assert thick_lmax(G, amask, "left", "witness-in-G", NodeCounter(10**6)) == 1


def test_a_cover_that_is_no_cover_fails_re_verification(monkeypatch):
    # {0,1} is 3-large in cyclic:4 and {0} is not 3-small, so each claim
    # re-checks a minimal cover; F = {0} covers neither {0,1} nor its failing L
    monkeypatch.setattr(classify, "_min_cover", lambda G, amask, side, counter: (1, (0,)))
    for side in SIDES:
        G = build_group("cyclic:4")
        with pytest.raises(RuntimeError, match="re-verification"):
            is_large(G, Subset.from_indices(4, (0, 1)), 3, side)
        with pytest.raises(RuntimeError, match="re-verification"):
            is_small(G, Subset.from_indices(4, (0,)), 3, side)


def test_an_off_by_one_translating_element_fails_re_verification(monkeypatch):
    least = classify._least_translating

    def off_by_one(*args):
        got = least(*args)
        return 0 if got is None else got + 1

    monkeypatch.setattr(classify, "_least_translating", off_by_one)
    for side in SIDES:
        for variant in VARIANTS:
            G = build_group("cyclic:4")
            # {0} is not 3-thick: its failing F must admit no element
            with pytest.raises(RuntimeError, match="re-verification"):
                is_thick(G, Subset.from_indices(4, (0,)), 3, side, variant)
            # {0,1,2} is 2-thick: each shown F's element must be the least
            with pytest.raises(RuntimeError, match="re-verification"):
                is_thick(G, Subset.from_indices(4, (0, 1, 2)), 2, side, variant)


def test_every_decided_verdict_is_rechecked_by_one_routine(monkeypatch):
    # _rechecked is the one owner of the witness re-check: with it refusing,
    # every decided claim of each classifier on every side raises, and so
    # does a verdict handed to the other side
    G = build_group("cyclic:4")
    subsets = [Subset(4, m) for m in range(1 << 4)]
    lefts = [(A, v) for A in subsets for v in (is_large(G, A, 3), is_thick(G, A, 3), is_small(G, A, 3))]

    def refuse(*args):
        raise RuntimeError("refused")

    monkeypatch.setattr(classify, "_rechecked", refuse)
    for A in subsets:
        for side in SIDES:
            for kappa in (2, 3, 4):
                claims = [
                    lambda: is_large(G, A, kappa, side),
                    *(lambda v=v: is_thick(G, A, kappa, side, v) for v in VARIANTS),
                    lambda: is_small(G, A, kappa, side),
                ]
                for claim in claims:
                    with pytest.raises(RuntimeError, match="refused"):
                        claim()
    for A, v in lefts:
        assert v.verdict is not None
        with pytest.raises(RuntimeError, match="refused"):
            classify.mirrored(G, A, v, "right")


def test_the_abelian_flag_is_read_from_the_table():
    for spec, abelian in (
        ("symmetric:3", False), ("dihedral:4", False), ("product:cyclic:2+cyclic:4", True),
        ("cyclic:8", True),
    ):
        G = build_group(spec)
        assert classify.abelian(G) is abelian is commutes(G), spec


@pytest.mark.parametrize("spec", ["symmetric:4", "cyclic:24"])
def test_the_full_set_is_thick_two_sided_with_no_profile_node(spec):
    # no pair excludes a candidate, so no F can fail: the profile walks no
    # size, and the claim spends only the re-check's one node per element
    G = build_group(spec)
    for variant in VARIANTS:
        assert _thick_profile(G, G.full_mask, "two-sided", variant, NodeCounter(0)) == (23, None)
        got = is_thick(build_group(spec), Subset.full(24), 2, "two-sided", variant)
        assert (got.verdict, got.nodes, len(got.witness)) == (True, 24, 24), variant


def test_a_floor_one_too_high_fails_the_two_sided_oracle(monkeypatch):
    floor = classify._cover_floor
    monkeypatch.setattr(
        classify, "_cover_floor",
        lambda G, per, need, side: floor(G, per, need, side) + (side == "two-sided"),
    )
    for spec in ("dihedral:4", "product:cyclic:2+cyclic:4"):
        G = build_group(spec)
        missed = set()
        for amask in range(1, G.full_mask + 1):
            counter = NodeCounter(10**9)
            if _min_cover(G, amask, "two-sided", counter) != oracle_pair_cover(G, amask, counter):
                missed.add("cover")
            for v in VARIANTS:
                if _thick_profile(G, amask, "two-sided", v, counter) != oracle_pair_profile(
                    G, amask, v, counter
                ):
                    missed.add(v)
        assert missed == {"cover", *VARIANTS}, spec


def test_a_count_one_too_small_fails_re_verification(monkeypatch):
    # A = G minus the identity in cyclic:6 at kappa 3: each f excludes one
    # candidate, and 2 * 1 < |candidates|, so the count decides
    G, A = build_group("cyclic:6"), Subset.from_indices(6, range(1, 6))
    for side in ONE_SIDES:
        for variant in VARIANTS:
            assert pigeonhole_holds(G, A.mask, 2, side, variant)
            got = _thick_witness_map(G, A.mask, 2, side, variant, NodeCounter(6))
            assert len(got) == 15
    excluded = classify._excluded
    monkeypatch.setattr(classify, "_excluded", lambda *args: excluded(*args) - 1)
    for side in ONE_SIDES:
        for variant in VARIANTS:
            with pytest.raises(RuntimeError, match="re-verification"):
                is_thick(build_group("cyclic:6"), A, 3, side, variant)


def test_a_two_sided_count_one_too_small_fails_re_verification(monkeypatch):
    # A = G minus the identity in cyclic:8 at kappa 4: each entry of the
    # two-sided table excludes one candidate, and 6 * 1 < |candidates|, so
    # the count decides, at one node per entry
    G, A = build_group("cyclic:8"), Subset.from_indices(8, range(1, 8))
    for variant in VARIANTS:
        assert pigeonhole_holds(G, A.mask, 3, "two-sided", variant)
        got = _thick_witness_map(G, A.mask, 3, "two-sided", variant, NodeCounter(36))
        assert len(got) == 56
    excluded = classify._excluded
    monkeypatch.setattr(classify, "_excluded", lambda *args: excluded(*args) - 1)
    for variant in VARIANTS:
        with pytest.raises(RuntimeError, match="re-verification"):
            is_thick(build_group("cyclic:8"), A, 4, "two-sided", variant)


#: Groups of order 9-24, for the brute force at small sizes.
BRUTE_SPECS = (
    *LARGER_SPECS, "cyclic:16", "product:cyclic:4+cyclic:4", "dihedral:8", "cyclic:20",
    "dihedral:10", "symmetric:4", "cyclic:24", "dihedral:12",
)


def small_numbers(G, amask, side, kmax):
    """The least |F| <= kmax with F*A = G (A*F, F*A*F), then per variant the
    least |F| <= kmax with no translating candidate, each kmax + 1 when
    there is none: every F of up to kmax elements, the empty F included,
    tried on the multiplication table."""
    n, mul = G.order, G.mul
    image = {
        "left": lambda f1, f2, x: mul[f1][x],
        "right": lambda f1, f2, x: mul[x][f1],
        "two-sided": lambda f1, f2, x: mul[mul[f1][x]][f2],
    }[side]

    def pairs_of(F):
        return itertools.product(F, F) if side == "two-sided" else zip(F, F)

    every = list(pairs_of(range(n)))
    cover = {p: mask_of(image(*p, a) for a in bits(amask)) for p in every}
    keep = {p: mask_of(x for x in range(n) if amask >> image(*p, x) & 1) for p in every}
    cands = {"witness-in-A": amask, "witness-in-G": G.full_mask}
    least_cover, least_fail = kmax + 1, dict.fromkeys(VARIANTS, kmax + 1)
    for size in range(kmax, -1, -1):
        for combo in itertools.combinations(range(n), size):
            ps = list(pairs_of(combo))
            if functools.reduce(int.__or__, map(cover.get, ps), 0) == G.full_mask:
                least_cover = size
            kept = functools.reduce(int.__and__, map(keep.get, ps), G.full_mask)
            for variant, cand in cands.items():
                if not kept & cand:
                    least_fail[variant] = size
    return least_cover, least_fail


def test_small_sizes_match_a_brute_force_on_the_table():
    # the floors at orders 9-24, on random and near-full subsets: the cover
    # decision and the thickness number up to 3, every side and variant
    rng = random.Random(20141107)
    groups = [build_group(spec) for spec in BRUTE_SPECS]
    for i in range(len(groups) * 4):
        G = groups[i % len(groups)]
        n = G.order
        drop = rng.randint(0, 3) if i // len(groups) % 2 else rng.randint(0, n)
        amask = G.full_mask ^ mask_of(rng.sample(range(n), drop))
        counter = NodeCounter(10**9)
        for side in SIDES:
            cover, fails = small_numbers(G, amask, side, 3)
            for k in range(1, 4):
                case = (G.spec, amask, side, k)
                assert cover_within(G, amask, side, k, counter) == (cover <= k), case
            for variant, fail in fails.items():
                case = (G.spec, amask, side, variant)
                assert min(thick_lmax(G, amask, side, variant, counter), 3) == fail - 1, case


def cover_size(G, side, amask, counter=None):
    return min_cover_size(G, amask, side, counter or NodeCounter(10**9))


def lmax(G, side, variant, amask, counter=None):
    return thick_lmax(G, amask, side, variant, counter or NodeCounter(10**9))


def verdicts(G, side, amask):
    """is_large and is_thick in both variants at every kappa, nodes left out
    (a table hit spends none)."""
    A = Subset(G.order, amask)
    out = []
    for kappa in range(2, G.order + 1):
        out.append(is_large(G, A, kappa, side).replace(nodes=0))
        for variant in VARIANTS:
            out.append(is_thick(G, A, kappa, side, variant).replace(nodes=0))
    return out


@functools.lru_cache(maxsize=None)
def on_fresh_group(spec, query, *args):
    """query(G, *args) on a group built for this call alone, whose size
    tables are empty."""
    return query(build_group(spec), *args)


def table_entries(G):
    """The filled (query, key) -> number entries of G's size table. A
    (side, mask) entry is a (lower, upper) pair for the cover number, read
    as its number when exact; a (side, variant, mask) entry is the least
    failing size, |G| + 1 when no F fails, read as lmax = min(lo, |G|) - 1."""
    return {
        (cover_size, key) if len(key) == 2 else (lmax, key):
            (lo if lo == hi else (lo, hi)) if len(key) == 2 else min(lo, G.order) - 1
        for key, (lo, hi) in _caches.get(G, {}).get("cover_size", {}).items()
    }


def assert_tables_match_fresh_groups(spec, amask, side, witnessed):
    """One search of A per variant on one side fills G's size tables: every
    entry, what the queries read back on every side for each filled
    translate, and its verdicts and witnesses (once per side and translate)
    equal what a fresh group computes."""
    G = build_group(spec)
    cover_size(G, side, amask)
    for variant in VARIANTS:
        lmax(G, side, variant, amask)
    entries = table_entries(G)
    for (query, key), size in entries.items():
        assert size == on_fresh_group(spec, query, *key), (query.__name__, key, amask)
    for m in sorted({key[-1] for _, key in entries}):
        for s in SIDES:
            assert cover_size(G, s, m) == on_fresh_group(spec, cover_size, s, m), (s, m)
            for variant in VARIANTS:
                want = on_fresh_group(spec, lmax, s, variant, m)
                assert lmax(G, s, variant, m) == want, (s, variant, m)
        if (side, m) not in witnessed:
            witnessed.add((side, m))
            assert verdicts(G, side, m) == on_fresh_group(spec, verdicts, side, m), (side, m)


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_size_tables_match_fresh_groups(spec):
    witnessed = set()
    for amask in range(build_group(spec).full_mask + 1):
        for side in ONE_SIDES:
            assert_tables_match_fresh_groups(spec, amask, side, witnessed)


#: Subsets whose left and right numbers differ (cover number and lmax in
#: both variants). In the GRID_SPECS groups the two sides always agree, so a
#: number entered under the wrong side would not show there.
SIDED_SUBSETS = (("dihedral:6", 715), ("product:symmetric:3+cyclic:2", 95), ("dihedral:7", 14636))


@pytest.mark.parametrize("spec,amask", SIDED_SUBSETS)
def test_size_tables_keep_the_sides_apart(spec, amask):
    G = build_group(spec)
    assert cover_size(G, "left", amask) != cover_size(G, "right", amask)
    for variant in VARIANTS:
        assert lmax(G, "left", variant, amask) != lmax(G, "right", variant, amask)
    for side in ONE_SIDES:
        assert_tables_match_fresh_groups(spec, amask, side, set())


def within(G, side, k, amask, counter=None):
    return cover_within(G, amask, side, k, counter or NodeCounter(10**9))


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_a_search_cut_off_fills_no_table(spec):
    # and the same call with a fresh counter then spends, on that group, what
    # it spends on a fresh group
    n = build_group(spec).order
    queries = (
        (cover_size, ()), *((lmax, (v,)) for v in VARIANTS), *((within, (k,)) for k in range(1, n + 1))
    )
    for amask in range(build_group(spec).full_mask + 1):
        for side in SIDES:
            for query, args in queries:
                counter = NodeCounter(10**9)
                want = query(build_group(spec), side, *args, amask, counter)
                for budget in {counter.spent - 1, counter.spent // 2} if counter.spent else ():
                    G = build_group(spec)
                    with pytest.raises(BudgetExceeded):
                        query(G, side, *args, amask, NodeCounter(budget))
                    case = (query.__name__, side, args, amask, budget)
                    assert table_entries(G) == {}, case
                    again = NodeCounter(10**9)
                    assert query(G, side, *args, amask, again) == want, case
                    assert again.spent == counter.spent, case


#: Subsets with a k that only the exact search refutes although the cover
#: number exceeds k + 1 ({0, 4} in cyclic:12: c = 8, k = 6), so that a
#: refutation entered as an upper bound shows. No GRID_SPECS subset has one.
DEEP_REFUTATIONS = (("cyclic:12", 0b10001, 6), ("cyclic:14", 0b100100010, 5))


@pytest.mark.parametrize(
    "spec,masks",
    [*((spec, None) for spec in GRID_SPECS), *((spec, (m,)) for spec, m, _ in DEEP_REFUTATIONS)],
)
def test_decisions_match_the_cover_number(spec, masks):
    # every subset (or the given ones), side and k in 1..n: on a group of its
    # own, on one group with k ascending (each decision reads the bounds the
    # smaller k left) and with k descending, and on the group the exact
    # search filled; every (lower, upper) entry left holds the number, and
    # the minimal cover and its size, found from the bounds the decisions
    # left, are the oracle's
    G = build_group(spec)
    n = G.order
    masks = range(G.full_mask + 1) if masks is None else masks
    numbers = {(side, m): cover_size(G, side, m) for side in SIDES for m in masks}
    covers = {(side, m): oracle_cover(G, m, side) for side, m in numbers}
    ascending, descending = build_group(spec), build_group(spec)
    for (side, m), c in numbers.items():
        for k in range(1, n + 1):
            case = (side, m, k, c)
            fresh = build_group(spec)
            assert within(fresh, side, k, m) == (c <= k), case
            assert _min_cover(fresh, m, side, NodeCounter(10**9)) == covers[side, m], case
            assert cover_size(fresh, side, m) == c, case
            assert within(ascending, side, k, m) == (c <= k), case
            assert within(G, side, k, m) == (c <= k), case
        for k in range(n, 0, -1):
            assert within(descending, side, k, m) == (c <= k), (side, m, k, c)
    for H in (ascending, descending, G):
        for (side, m), (lo, hi) in list(_caches[H]["cover_size"].items()):
            assert lo <= cover_size(G, side, m) <= hi, (side, m, lo, hi)
    for H in (ascending, descending):
        for (side, m), c in numbers.items():
            assert cover_size(H, side, m) == c, (side, m, c)
            assert _min_cover(H, m, side, NodeCounter(10**9)) == covers[side, m], (side, m)


def test_a_large_claim_the_counting_bound_refutes_searches_nothing():
    # 8 > 2*|A| (and 2*2*|A|) at kappa-1 = 2: the decision refutes every
    # side with no table built, and no least cover is searched for a verdict
    # that prints none
    G = build_group("cyclic:8")
    for side in SIDES:
        got = is_large(G, Subset.from_indices(8, [1]), 3, side)
        assert (got.verdict, got.nodes) == (False, 0), side
    assert table_entries(G) == {} and _caches[G]["cover"] == {}


def test_a_two_sided_large_claim_after_its_decision_walks_once():
    # the decision's walk records the least cover it hits, and the claim
    # reads it: no second walk
    spec, A, kappa = "dihedral:4", Subset.from_indices(8, [0, 1]), 4
    G, counter = build_group(spec), NodeCounter(10**9)
    assert cover_within(G, A.mask, "two-sided", kappa - 1, counter) and counter.spent > 0
    got = is_large(G, A, kappa, "two-sided")
    assert (got.verdict, got.nodes) == (True, 0)
    fresh = is_large(build_group(spec), A, kappa, "two-sided")
    assert fresh == got.replace(nodes=counter.spent)
    assert got.witness == Subset.from_indices(8, oracle_cover(G, A.mask, "two-sided")[1])


@pytest.mark.parametrize("side", ONE_SIDES)
def test_a_minimal_cover_builds_the_translates_once(side, monkeypatch):
    # the size step builds f*A (A*f) once, and its lex phase reuses them;
    # A = {1, 2} in cyclic:12 is not its own inverse, so the options, the
    # translates of A^-1, are not counted
    calls = []
    translates = classify._translates
    monkeypatch.setattr(
        classify, "_translates", lambda G, amask, *rest: calls.append(amask) or translates(G, amask, *rest)
    )
    G, amask = build_group("cyclic:12"), 0b110
    assert _min_cover(G, amask, side, NodeCounter(10**9)) == oracle_cover(G, amask, side)
    assert calls.count(amask) == 1


def test_the_translate_memo_is_bounded():
    # every size query on every side, each answer checked on the way
    G = build_group("cyclic:8")
    for amask in range(G.full_mask + 1):
        assert_matches_oracle(G, amask)
        assert len(_caches[G]["translates"]) <= classify.TRANSLATE_MEMO
    assert len(_caches[G]["translates"]) == classify.TRANSLATE_MEMO


@pytest.mark.parametrize("spec", ["dihedral:4", "symmetric:3", "cyclic:8"])
def test_translates_are_the_sums_of_the_bit_rows(spec):
    G, rng = build_group(spec), random.Random(spec)
    for _ in range(200):
        amask, side = rng.randrange(G.full_mask + 1), rng.choice(ONE_SIDES)
        at = [rng.randrange(G.order) for _ in range(rng.randrange(G.order + 1))]
        product = (lambda g, a: G.mul[g][a]) if side == "left" else (lambda g, a: G.mul[a][g])
        want = [sum(1 << product(g, a) for a in bits(amask)) for g in at]
        assert classify._translates(G, amask, side, at) == want, (amask, side, at)
        assert classify._translates(G, amask, side) == cover_masks(G, amask, side)


def test_no_caller_can_change_a_memoized_translate():
    G = build_group("dihedral:4")
    want = cover_masks(G, 0b1011, "right")
    for at in (None, range(G.order)):
        got = classify._translates(G, 0b1011, "right", at)
        got[0] = got[-1] = 0
        got.append(1)
        assert classify._translates(G, 0b1011, "right") == want
        assert classify._translates(G, 0b1011, "right", range(G.order)) == want


def generic_pair_walks(G, amask):
    """_pair_walks' tables built from the definition in any group: the rows
    f1*A*f2 from the table, n^2*|A| products, then each pair table the meet
    of its rows and columns."""
    n, full, inv, mul = G.order, G.full_mask, G.inv, G.mul
    rows = [[mask_of(mul[mul[f1][a]][f2] for a in bits(amask)) for f2 in range(n)] for f1 in range(n)]
    out = [[full ^ m for m in row] for row in rows]

    def meet(table):
        return [[table[i][j] & table[j][i] for j in range(n)] for i in range(n)]

    both = meet(rows)
    cover = ([out[i][i] for i in range(n)], meet(out))
    thick = ([rows[i][i] for i in inv], [[both[i][j] for j in inv] for i in inv])
    return cover, thick


@pytest.mark.parametrize(
    "spec",
    [*(spec for spec in GRID_SPECS if build_group(spec).is_abelian()), "dihedral:4", "symmetric:3"],
)
def test_the_pair_walk_tables_are_the_generic_build(spec):
    # abelian groups read the tables off A's left translates; the two
    # non-abelian groups check that only they take the generic build
    G = build_group(spec)
    for amask in range(G.full_mask + 1):
        assert classify._pair_walks(G, amask) == generic_pair_walks(G, amask), amask


@pytest.mark.parametrize("spec", ["dihedral:4", "product:cyclic:2+cyclic:4"])
def test_a_two_sided_profile_enters_no_size(spec):
    # its result lives in the profile cache alone: the cover and size tables
    # stay as they were, whatever cover queries filled them before
    G = build_group(spec)
    counter = NodeCounter(10**9)
    for amask in range(0, G.full_mask + 1, 7):
        min_cover_size(G, amask, "two-sided", counter)
        _min_cover(G, amask, "left", counter)
    before = {name: dict(_caches[G][name]) for name in ("cover", "cover_size")}
    for amask in range(G.full_mask + 1):
        for variant in VARIANTS:
            _thick_profile(G, amask, "two-sided", variant, counter)
    assert {name: _caches[G][name] for name in before} == before


@pytest.mark.parametrize("spec,amask,k", DEEP_REFUTATIONS)
def test_deep_refutations_need_the_exact_search(spec, amask, k):
    counter = NodeCounter(10**9)
    assert not within(build_group(spec), "left", k, amask, counter) and counter.spent > 0
    assert cover_size(build_group(spec), "left", amask) > k + 1


def transpose(covers, full):
    """opts[e]: bit f set when covers[f] holds element e, one bit at a time."""
    opts = [0] * max(m.bit_length() for m in (full, *covers))
    for f, c in enumerate(covers):
        for e in bits(c):
            opts[e] |= 1 << f
    return opts


def hitting(covers, full, counter):
    """The size step's lex phase on options transposed from the covers, on
    a fresh group of order len(covers), entering nothing."""
    G = build_group(f"cyclic:{len(covers)}")
    per = max(c.bit_count() for c in covers)
    options = lambda: transpose(covers, full)  # noqa: E731
    return _cover_bounds(G, ("left", "hitting", 0), full, per, covers, options, (), None, counter, lex=True)[2]


def test_kernel_edge_cases():
    counter = NodeCounter(10**6)
    assert hitting([0b01, 0b10, 0b11], 0, counter) == ()
    # the sets together miss an element of the target: no F covers, though
    # the floor allows all of them
    assert hitting([0b01, 0b01], 0b11, counter) is None
    # no set holds an element: the floor is |G| + 1, and no F covers
    assert hitting([0, 0], 0b11, counter) is None
    # the one F of all the sets is answered without a search
    assert hitting([0b001, 0b010, 0b100], 0b111, NodeCounter(0)) == (0, 1, 2)
    # greedy takes {2} first and needs three sets; two suffice
    covers = [0b000111, 0b111000, 0b011110, 0b100000, 0b000001]
    assert hitting(covers, 0b111111, counter) == (0, 1)
    # the lex-least of several optimal covers
    assert hitting([0b0011, 0b1100, 0b0110, 0b1001], 0b1111, counter) == (0, 1)


def test_a_two_sided_walk_that_keeps_an_element_has_no_f():
    # every pair of cyclic:2 keeps element 1, so no F empties the walk,
    # though the floor allows both elements
    G = build_group("cyclic:2")
    walk = ([0b10, 0b10], [[0b10, 0b10], [0b10, 0b10]])
    got = _cover_bounds(G, ("two-sided", "hitting", 0), 0b11, 1, walk, None, (), None, NodeCounter(10**6), lex=True)
    assert got == (3, 3, None)


def test_a_step_with_no_size_left_to_decide_enters_nothing():
    # A = {0, 1, 2} in cyclic:6 needs two translates, the counting floor
    # 6 / 3; the seeded pair (0, 2) is inexact, but the floor meets its upper
    # end, so no size is decided: the lex phase alone runs, without the
    # option lists, and no key is entered
    G = build_group("cyclic:6")
    amask, key = 0b111, ("left", 0b111)
    table = classify._cache(G)["cover_size"]
    table[key] = (0, 2)
    covers = cover_masks(G, amask, "left")

    def options():
        raise AssertionError("no size is decided, so no option list is read")

    keys = [("left", m) for m in covers]
    got = _cover_bounds(G, key, G.full_mask, 3, covers, options, keys, None, NodeCounter(10**6), lex=True)
    assert got == (2, 2, (0, 3))
    assert table == {key: (0, 2)}


def test_kernel_spends_budget():
    covers = [1 << (i % 7) | 1 << ((3 * i + 1) % 7) for i in range(7)]
    with pytest.raises(BudgetExceeded):
        hitting(covers, (1 << 7) - 1, NodeCounter(1))


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_kernel_options_are_the_transposed_covers(spec, monkeypatch):
    # the option lists that the one-sided cover searches (e*A^-1, A^-1*e) and
    # the thickness searches (all f outside dom(x)) read off the group and
    # hand to the shared step are exactly the covers transposed; the cover
    # searches hand it the translates of A itself
    calls = {"cover": [], "thick": []}
    family = []

    def recording(covers, options, full, *rest):
        calls[family[0]].append((*family[1:], covers, options(), full))
        return step(covers, options, full, *rest)

    step = classify._tighten
    monkeypatch.setattr(classify, "_tighten", recording)
    G = build_group(spec)
    counter = NodeCounter(10**9)
    for amask in range(G.full_mask + 1):
        for side in ONE_SIDES:
            family[:] = ("cover", amask, side)
            cover_size(G, side, amask, counter)
            family[:] = ("thick", amask, side)
            for variant in VARIANTS:
                lmax(G, side, variant, amask, counter)
    assert calls["cover"] and calls["thick"]
    for amask, side, covers, opts, full in calls["cover"]:
        assert (covers, full) == (cover_masks(G, amask, side), G.full_mask), (amask, side)
    for amask, side, covers, opts, full in calls["cover"] + calls["thick"]:
        want = transpose(covers, full)
        assert [opts[e] for e in bits(full)] == [want[e] for e in bits(full)], (amask, side)


def test_symmetric4_resolvability_within_a_small_budget():
    out = res_search(build_group("symmetric:4"), 12, "left", node_budget=10**6)
    assert out.cells == 8 and out.optimal


def test_is_small_skips_sets_that_cannot_witness():
    # no L meets the empty set, so it is small with no scan, at any budget
    G = build_group("cyclic:14")
    for side in SIDES:
        for budget in (0, 10**5):
            got = is_small(G, Subset.empty(14), 3, side, node_budget=budget)
            assert (got.verdict, got.witness, got.nodes) == (True, None, 0)


def test_two_sided_small_is_its_left_scan():
    # fresh tables, so that neither call is answered from the other's cache
    A = Subset.from_indices(6, [0, 1])
    both = is_small(build_group("cyclic:6"), A, 3, "two-sided")
    left = is_small(build_group("cyclic:6"), A, 3, "left")
    assert both.side == "two-sided" and both.verdict is False
    assert (both.verdict, both.witness, both.nodes) == (left.verdict, left.witness, left.nodes)
    assert both.nodes > 0


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_is_small_matches_the_lemma(spec):
    # only the empty set is small; otherwise the failing L is the
    # (size, lex)-first large mask that meets A, and two-sided equals left
    G = build_group(spec)
    n = G.order
    order = sorted(range(1 << n), key=lambda m: (m.bit_count(), tuple(bits(m))))
    sizes = {
        side: {m: (oracle_cover(G, m, side) or (n + 1,))[0] for m in range(1 << n)}
        for side in ONE_SIDES
    }
    for amask in range(1 << n):
        A = Subset(n, amask)
        for kappa in range(2, n + 1):
            got = {side: is_small(G, A, kappa, side) for side in SIDES}
            if not amask:
                assert all(v.verdict is True and v.nodes == 0 for v in got.values())
                continue
            for side in ONE_SIDES:
                first = next(m for m in order if m & amask and sizes[side][m] <= kappa - 1)
                assert (got[side].verdict, got[side].witness) == (False, Subset(n, first))
            assert (got["two-sided"].verdict, got["two-sided"].witness) == (
                False, got["left"].witness
            )


ROOT = Path(__file__).resolve().parents[1]
#: Modules that read sizes through the public classify queries only.
CLASSIFY_CLIENTS = (
    ROOT / "src" / "kappasets" / "resolvability.py",
    ROOT / "src" / "kappasets" / "suites.py",
    ROOT / "src" / "kappasets" / "cli.py",
    *sorted((ROOT / "scripts").glob("*.py")),
)


def private_classify_names(tree):
    """Underscore-prefixed names a module imports from, or reads off,
    kappasets.classify."""
    aliases = set()
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("classify", "kappasets.classify"):
                used += [a.name for a in node.names if a.name.startswith("_")]
            elif node.module in (None, "kappasets"):
                aliases |= {a.asname or a.name for a in node.names if a.name == "classify"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "kappasets.classify" and a.asname}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ):
            used.append(node.attr)
    return used


@pytest.mark.parametrize("path", CLASSIFY_CLIENTS, ids=lambda p: p.name)
def test_clients_use_only_public_classify_names(path):
    assert private_classify_names(ast.parse(path.read_text())) == []


def environment_reads(tree):
    """os.environ and os.getenv uses in a module, by attribute or import."""
    names = ("environ", "environb", "getenv", "getenvb")
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            used.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            used += [a.name for a in node.names if a.name in names]
    return used


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "kappasets").glob("*.py")), ids=lambda p: p.name
)
def test_package_reads_no_environment(path):
    # the node budget has one source, --node-budget (node_budget= in the API)
    assert environment_reads(ast.parse(path.read_text())) == []


#: Searches that take node_budget= and report the nodes they spent.
NESTED_SEARCHES = ("is_large", "is_thick", "is_small", "res_search", "partition_search")


def uncharged_searches(tree):
    """(name, line) of each use of a NESTED_SEARCHES name that is not the
    search argument of a charged(counter, search, ...) call."""
    charged_args = {
        id(node.args[1])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "charged"
        and len(node.args) >= 2
    }
    used = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in NESTED_SEARCHES and id(node) not in charged_args:
            used.append((name, node.lineno))
    return used


@pytest.mark.parametrize(
    "path",
    [ROOT / "src" / "kappasets" / name for name in ("resolvability.py", "suites.py")],
    ids=lambda p: p.name,
)
def test_nested_searches_spend_from_the_claims_counter(path):
    # a search run inside another one or inside a claim is charged to its
    # counter, so a passing claim never spends more than its budget
    assert uncharged_searches(ast.parse(path.read_text())) == []
