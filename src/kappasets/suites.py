"""Claim-level verification suites, shared by the CLI and the acceptance tests.

SUITES maps each suite name to its claims, each a (claim_id, anchor, check)
triple; run_suite turns them into ClaimRecords. A check is a deterministic
sweep: exhaustive over small-group grids, or exact-product sweeps over
free-group balls. A failing sweep reports its first counterexample.

Each claim spends from one node counter, and every search it runs spends
from that counter too, so a budget that runs out anywhere in the claim makes
it inconclusive, never a failure.
"""

from __future__ import annotations

import time
from functools import lru_cache
from operator import getitem
from typing import Callable, Iterator

from . import classify as cl
from .classify import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    CoverDecomposition,
    NodeCounter,
    ball_uncovered_witness,
    charged,
    covered,
    is_thick,
    thick_to_large_witness,
)
from .constructions import (
    Partition,
    comment2_bset,
    meet_partition,
    rank1_cell_of_int,
    rank1_partition,
    rank2_partition,
    s_set,
    split3_partition,
    thm3_partition,
)
from .groups import GroupTable, Subset, build_group, inverse_mask
from .report import ClaimRecord
from .resolvability import THICK_PROBE_NOTE, partition_search, res_search
from .words import (
    Ball,
    DSWord,
    Word,
    concat,
    conjugate,
    ds_concat,
    ds_inverse,
    enumerate_ball,
    enumerate_ds_ball,
    format_word,
    inverse,
    reduce_word,
    words_over,
)

#: The small-group grid every subset-level sweep runs over.
GRID_SPECS = (
    "cyclic:4",
    "cyclic:5",
    "cyclic:6",
    "cyclic:8",
    "product:cyclic:2+cyclic:2",
    "symmetric:3",
    "dihedral:4",
)

#: Groups of order <= 6 for the resolvability oracle.
ORACLE_SPECS = (
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:5",
    "cyclic:6",
    "product:cyclic:2+cyclic:2",
    "symmetric:3",
    "dihedral:3",
)


@lru_cache(maxsize=None)
def grid_group(spec: str) -> GroupTable:
    return build_group(spec)


#: A claim's check: it spends from the claim's counter and returns (ok, detail).
Check = Callable[[NodeCounter], tuple[bool, str]]
#: A suite entry: (claim_id, anchor, check).
Claim = tuple[str, str, Check]


def _grid(
    prefix: str, anchor: str, check: Callable[[GroupTable, NodeCounter], tuple[bool, str]]
) -> tuple[Claim, ...]:
    """One claim "<prefix>.<spec>" per GRID_SPECS group, in grid order; the
    group is looked up when the claim runs."""
    return tuple(
        (f"{prefix}.{spec}", anchor, lambda c, spec=spec: check(grid_group(spec), c))
        for spec in GRID_SPECS
    )


def _subset_str(n: int, mask: int) -> str:
    return repr(Subset(n, mask))


# -- duality / variant chain / inversion / lattice / small grid ------------------


def _check_duality(G: GroupTable, counter: NodeCounter) -> tuple[bool, str]:
    n = G.order
    full = G.full_mask
    checked = 0
    for amask in range(1 << n):
        comp = amask ^ full
        for side in cl.SIDES:
            lmax = cl.thick_lmax(G, amask, side, "witness-in-G", counter)
            cs = cl.min_cover_size(G, comp, side, counter)
            for kappa in range(2, n + 1):
                thick = kappa - 1 <= lmax
                comp_large = cs <= kappa - 1
                if thick == comp_large:
                    return False, (
                        f"divergence at A={_subset_str(n, amask)} side={side} kappa={kappa}"
                    )
                checked += 1
    return True, f"{checked} (A, side, kappa) combinations agree"


def _check_variant_chain(G: GroupTable, counter: NodeCounter) -> tuple[bool, str]:
    n = G.order
    checked = 0
    for amask in range(1 << n):
        for side in cl.SIDES:
            la = cl.thick_lmax(G, amask, side, "witness-in-A", counter)
            lg = cl.thick_lmax(G, amask, side, "witness-in-G", counter)
            for kappa in range(2, n + 1):
                in_a = kappa - 1 <= la
                in_g = kappa - 1 <= lg
                if in_a and not in_g:
                    return False, f"chain A=>G broken at A={_subset_str(n, amask)} side={side} kappa={kappa}"
                if kappa >= 3 and in_g and not (kappa - 2 <= la):
                    return False, f"chain G=>A(kappa-1) broken at A={_subset_str(n, amask)} side={side} kappa={kappa}"
                checked += 1
    return True, f"{checked} chain instances hold"


def _check_divergence(counter: NodeCounter) -> tuple[bool, str]:
    G = grid_group("cyclic:2")
    A = Subset.from_indices(2, [1])
    va = charged(counter, is_thick, G, A, 2, "left", "witness-in-A")
    vg = charged(counter, is_thick, G, A, 2, "left", "witness-in-G")
    ok = va.verdict is False and vg.verdict is True and va.witness == Subset.from_indices(2, [1])
    return ok, (
        f"cyclic:2 A={{1}} kappa=2: in-A={va.verdict} (failing F={va.witness}), in-G={vg.verdict}"
    )


def _check_inversion(G: GroupTable, counter: NodeCounter) -> tuple[bool, str]:
    n = G.order
    checked = 0
    for amask in range(1 << n):
        iv = inverse_mask(G, amask)
        pairs = (("left", "right"), ("right", "left"), ("two-sided", "two-sided"))
        for s1, s2 in pairs:
            if cl.min_cover_size(G, amask, s1, counter) != cl.min_cover_size(G, iv, s2, counter):
                return False, f"largeness inversion fails at A={_subset_str(n, amask)} {s1}/{s2}"
            for variant in cl.VARIANTS:
                p1 = cl.thick_lmax(G, amask, s1, variant, counter)
                p2 = cl.thick_lmax(G, iv, s2, variant, counter)
                if p1 != p2:
                    return False, (
                        f"thickness inversion fails at A={_subset_str(n, amask)} {s1}/{s2} {variant}"
                    )
            checked += 1
    return True, f"{checked} (A, side-pair) inversion instances hold"


def _check_lattice(G: GroupTable, counter: NodeCounter) -> tuple[bool, str]:
    # two-sided thick => one-sided thick (any-translate variant);
    # one-sided large => two-sided large. Exact at every kappa via the
    # profile/cover summaries.
    n = G.order
    checked = 0
    for amask in range(1 << n):
        l2 = cl.thick_lmax(G, amask, "two-sided", "witness-in-G", counter)
        ll = cl.thick_lmax(G, amask, "left", "witness-in-G", counter)
        lr = cl.thick_lmax(G, amask, "right", "witness-in-G", counter)
        if l2 > min(ll, lr):
            return False, f"thick lattice fails at A={_subset_str(n, amask)}"
        s2 = cl.min_cover_size(G, amask, "two-sided", counter)
        sl = cl.min_cover_size(G, amask, "left", counter)
        sr = cl.min_cover_size(G, amask, "right", counter)
        if s2 > min(sl, sr):
            return False, f"large lattice fails at A={_subset_str(n, amask)}"
        checked += 1
    return True, f"{checked} subsets satisfy both lattice inequalities"


def _check_small_not_large(G: GroupTable, counter: NodeCounter) -> tuple[bool, str]:
    n = G.order
    checked = 0
    for side in ("left", "right"):
        sizes = {m: cl.min_cover_size(G, m, side, counter) for m in range(1 << n)}
        for kappa in range(2, n + 1):
            limit = kappa - 1
            large = [m for m in range(1 << n) if sizes[m] <= limit]
            for amask in range(1 << n):
                small = True
                for lm in large:
                    if sizes[lm & ~amask] > limit:
                        small = False
                        break
                if small and sizes[amask] <= limit:
                    return False, (
                        f"small-but-large at A={_subset_str(n, amask)} side={side} kappa={kappa}"
                    )
                checked += 1
    return True, f"{checked} (A, side, kappa) small=>not-large instances hold"


# -- the meets property -----------------------------------------------------------


def _check_meets(G: GroupTable, counter: NodeCounter) -> tuple[bool, str]:
    n = G.order
    checked = 0
    for kappa in range(2, n + 1):
        limit = kappa - 1
        thick = []
        large = []
        for amask in range(1 << n):
            if limit <= cl.thick_lmax(G, amask, "left", "witness-in-G", counter):
                thick.append(amask)
            if cl.min_cover_size(G, amask, "left", counter) <= limit:
                large.append(amask)
        for am in thick:
            for lm in large:
                if am & lm == 0:
                    return False, (
                        f"disjoint thick/large pair at kappa={kappa}: "
                        f"{_subset_str(n, am)} vs {_subset_str(n, lm)}"
                    )
                checked += 1
    return True, f"{checked} thick/large pairs all meet"


# -- the endpoint-marked set -------------------------------------------------------


def _check_s_sandwich(counter: NodeCounter) -> tuple[bool, str]:
    S = s_set(2, 0)
    ball = enumerate_ball(2, 8)
    K = [(), (1,), (-1,)]
    for g in ball.words:
        if not any(S(concat(concat(k1, g), k2)) for k1 in K for k2 in K):
            return False, f"no sandwich for {format_word(g)}"
    return True, f"all {ball.size} ball words sandwich into the set with K = {{1, a, a'}}"


def _check_s_power_witness(counter: NodeCounter) -> tuple[bool, str]:
    S = s_set(2, 0)
    H = enumerate_ball(2, 3).words
    b4 = (2, 2, 2, 2)
    if covered(H, S, b4):
        return False, "b^4 is covered by H*S for H the radius-3 ball"
    ball = enumerate_ball(2, 8)
    w = ball_uncovered_witness(ball, list(H), S)
    if w is None or covered(H, S, w):
        return False, "scan returned no verifiable uncovered word"
    if ball.index_of(w) > ball.index_of(b4):
        return False, "scan missed b^4"
    return True, f"b^4 uncovered; first uncovered ball word is {format_word(w)}"


def _check_s_fresh_letter_witness(counter: NodeCounter) -> tuple[bool, str]:
    S = s_set(4, 0)
    H = words_over([0, 1], 2)
    c = (3,)
    if covered(H, S, c):
        return False, "c is covered by H*S"
    w = ball_uncovered_witness(enumerate_ball(4, 2), H, S)
    if w != c:
        return False, f"first uncovered word is {format_word(w)} instead of c"
    return True, f"fresh letter c uncovered by the {len(H)} adversary words over {{a,b}}"


def _check_s_symmetric(counter: NodeCounter) -> tuple[bool, str]:
    S = s_set(2, 0)
    ball = enumerate_ball(2, 6)
    for w in ball.words:
        if S(w) != S(inverse(w)):
            return False, f"not inverse-symmetric at {format_word(w)}"
    return True, f"inverse-symmetric on all {ball.size} ball words"


# -- last-letter split (two cells) --------------------------------------------------


def _check_thm3_partition(counter: NodeCounter) -> tuple[bool, str]:
    thm3_partition(4, [0, 1], check_radius=5)
    return True, "2-cell last-letter split partitions the radius-5 ball on four letters"


def _check_thm3_witnesses(counter: NodeCounter) -> tuple[bool, str]:
    cells = thm3_partition(4, [0, 1], check_radius=3).cells
    ball = enumerate_ball(4, 2)
    # per cell: the adversary's letters, the word that escapes, its name
    escapes = (([0, 1, 2], (4,), "s"), ([0, 2, 3], (2,), "q"))
    for i, (cell, (letters, expected, name)) in enumerate(zip(cells, escapes)):
        H = words_over(letters, 2)
        w = ball_uncovered_witness(ball, H, cell)
        if w != expected:
            return False, f"cell-{i} witness is {None if w is None else format_word(w)}, expected {name}"
        if covered(H, cell, expected):
            return False, f"cell-{i} witness failed raw re-verification"
    return True, "witnesses: s escapes H1*B1 (H1 over {p,q,r}); q escapes H2*B2 (H2 over {p,r,s})"


#: A membership test on words: a cell, or the rule that should decide it.
WordTest = Callable[[Word], bool]


def _end_rule_sweep(cell: WordTest, rule: WordTest, ball: Ball, what: str, holds: str) -> tuple[bool, str]:
    """Whether w lies in cell exactly when rule(w), for every ball word w;
    a failure names the first word, in ball order, where they differ, and
    what the rule reads of it."""
    for w in ball.words:
        if cell(w) != rule(w):
            return False, f"membership not a function of the {what} at {format_word(w)}"
    return True, holds


def _check_thm3_suffix_stability(counter: NodeCounter) -> tuple[bool, str]:
    b1 = thm3_partition(4, [0, 1], check_radius=3).cells[0]
    return _end_rule_sweep(
        b1, lambda w: bool(w) and abs(w[-1]) in (1, 2), enumerate_ball(4, 4), "last letter",
        "cell membership depends only on the last letter, radius-4 sweep",
    )


# -- three-cell constructions and the meet property ----------------------------------


def _check_c1_partitions(counter: NodeCounter) -> tuple[bool, str]:
    split3_partition(3, [0], [1], [2], check_radius=6)
    split3_partition(6, [0, 1], [2, 3], [4, 5], check_radius=4)
    rank2_partition(check_radius=8)
    rank1_partition(check_radius=64)
    return True, (
        "verified partitions: 3-split on 3 letters (radius 6) and 6 letters (radius 4), "
        "rank-2 end-factor split (radius 8), rank-1 doubling blocks (radius 64)"
    )


def _check_c1_rank2_witnesses(counter: NodeCounter) -> tuple[bool, str]:
    part = rank2_partition(check_radius=4)
    b1, b2, b3 = part.cells
    H = enumerate_ball(2, 2).words
    b6 = (2,) * 6
    a6 = (1,) * 6
    ab6 = reduce_word([1, 2] * 6)
    for target, cell, name in ((b6, b1, "b^6 vs cell 0"), (a6, b2, "a^6 vs cell 1"), (ab6, b3, "(ab)^6 vs cell 2")):
        if covered(H, cell, target):
            return False, f"covered: {name}"
    return True, "b^6, a^6 and (ab)^6 escape H times cell 0, 1, 2 for the radius-2 adversary"


def _check_c1_rank2_factor_stability(counter: NodeCounter) -> tuple[bool, str]:
    b1 = rank2_partition(check_radius=4).cells[0]
    mixed = {(1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1)}
    marked = mixed | {(1, 1), (-1, -1)}
    # a word shorter than 2 has no end factor, so the rule puts it outside
    # the cell; short words come first in ball order, so scanning them
    # first keeps the first failing word
    for w in enumerate_ball(2, 1).words:
        if b1(w):
            return False, f"short word in cell 0: {format_word(w)}"
    return _end_rule_sweep(
        b1, lambda w: w[:2] in marked and w[-2:] in marked, enumerate_ball(2, 6), "end factors",
        "cell-0 membership depends only on the length-2 end factors, radius-6 sweep",
    )


def _check_c1_rank1_blocks(counter: NodeCounter) -> tuple[bool, str]:
    """Blocks are mirrored at 0, and every interior window is one colour.

    The windows [n-h, n+h] overlap heavily, so the colour of each v in
    [0, 2^13] is computed once into a table (the windows reach 2^13 - 1),
    and every window is compared cell by cell against that table, in the
    same (h, k, n) order as a direct sweep, so the first failing window is
    the one it would report.
    """
    for v in range(1, 8193):
        if rank1_cell_of_int(-v) != rank1_cell_of_int(v):
            return False, f"not mirrored at {v}"
    cells = [rank1_cell_of_int(v) for v in range(2**13 + 1)]
    checked = 0
    for h in range(1, 9):
        width = 2 * h + 1
        for k in range(1, 13):
            if 2**k <= 2 * h:
                continue
            for nval in range(2**k + h + 1, 2 ** (k + 1) - h):
                if cells[nval - h : nval + h + 1].count(cells[nval]) != width:
                    return False, f"window at n={nval}, h={h} touches the other cell"
                checked += 1
    return True, f"{checked} interior points have monochromatic translate windows"


def _check_c1_split3_endpoint_stability(counter: NodeCounter) -> tuple[bool, str]:
    b1 = split3_partition(3, [0], [1], [2], check_radius=3).cells[0]
    return _end_rule_sweep(
        b1, lambda w: bool(w) and abs(w[0]) in (2, 3) and abs(w[-1]) in (2, 3), enumerate_ball(3, 5),
        "endpoints", "cell-0 membership depends only on the endpoint letters, radius-5 sweep",
    )


def _check_c1_meet(counter: NodeCounter) -> tuple[bool, str]:
    G = grid_group("cyclic:8")
    n = G.order
    limit = 2  # kappa = 3
    checked = 0
    for amask in range(1, 1 << (n - 1)):  # top element in the complement: each
        comp = amask ^ G.full_mask        # unordered 2-cell partition appears once
        ca = cl.min_cover_size(G, amask, "left", counter)
        cc = cl.min_cover_size(G, comp, "left", counter)
        if ca <= limit or cc <= limit:
            continue
        part = Partition(
            (Subset(n, amask), Subset(n, comp)), "oracle 2-cell partition", group=G
        )
        for cell in meet_partition(G, part).cells:
            for side in ("left", "right"):
                if cl.min_cover_size(G, cell.mask, side, counter) <= limit:
                    return False, (
                        f"meet cell {cell} is {side} 3-large for P = "
                        f"{_subset_str(n, amask)} | {_subset_str(n, comp)}"
                    )
        checked += 1
    return True, f"{checked} qualifying 2-cell partitions: every meet cell stays non-large"


# -- direct sums ---------------------------------------------------------------------


def _component_conjugates(components: list[list[Word]], g: DSWord) -> list[dict[Word, Word]]:
    """Per summand i, the table w -> conjugate(w, g[i]) over components[i].

    ds_conjugate works one component at a time, so
    tuple(map(getitem, tables, x)) equals ds_conjugate(x, g) for every x
    whose components lie in the tables.
    """
    return [{w: conjugate(w, h) for w in words} for words, h in zip(components, g)]


def _check_c2_support(counter: NodeCounter) -> tuple[bool, str]:
    """Conjugation by every g in the ball keeps the support of every x.

    For each g the conjugate of every distinct component word of the ball
    (53 + 7 of them) is tabulated once, and each ds_conjugate(x, g) is
    assembled from those tables instead of being recomputed per pair. A
    support is the set of non-empty components, so each x's emptiness flags
    are computed once and compared with the conjugate's. Every (g, x) pair
    is still built, compared and charged one node, in the same order as a
    direct sweep, so failures and budget outcomes match it.
    """
    dsball = enumerate_ds_ball((2, 1), 3)
    components = [list(dict.fromkeys(column)) for column in zip(*dsball)]
    flags = [tuple(map(bool, x)) for x in dsball]
    for g in dsball:
        tables = _component_conjugates(components, g)
        for x, x_flags in zip(dsball, flags):
            counter.spend()
            conj = tuple(map(getitem, tables, x))
            if tuple(map(bool, conj)) != x_flags:
                return False, f"support moved for x={x} under g={g}"
    return True, f"conjugation preserves support on all {len(dsball)}^2 pairs (ranks 2+1, radius 3)"


def _check_c2_witness(counter: NodeCounter) -> tuple[bool, str]:
    B = comment2_bset((2, 2), (0, 0))
    if not B(((2, 1), ())):
        return False, "expected member (ba, e) rejected"
    if B(((2, 1), (2,))):
        return False, "expected non-member (ba, d) accepted"
    H = [(w, ()) for w in enumerate_ball(2, 2).words]
    g = ((), (2,))
    for h in H:
        if B(ds_concat(ds_inverse(h), g)):
            return False, "witness (e, d) covered by H*B"
    return True, f"(e, d) escapes H*B for the {len(H)} support-0 adversaries of length <= 2"


# -- searches: the constructive witness, resolvability oracle, and the probe ---------


def _check_thick_to_large(counter: NodeCounter) -> tuple[bool, str]:
    checked = 0
    for spec in ("cyclic:6", "cyclic:8"):
        G = grid_group(spec)
        n = G.order
        for kappa in (3, 4):
            limit = kappa - 1
            for amask in range(1 << n):
                if limit > cl.thick_lmax(G, amask, "left", "witness-in-G", counter):
                    continue
                A = Subset(n, amask)
                for block in range(1, kappa):
                    cover = CoverDecomposition.blocks(G, block)
                    F = thick_to_large_witness(G, A, kappa, cover)
                    if F.size > len(cover.cells):
                        return False, f"oversized witness at A={A} kappa={kappa} block={block}"
                    checked += 1
    return True, f"{checked} (thick A, cover) pairs produce verified right-cover witnesses"


def _all_set_partitions(n: int) -> Iterator[list[int]]:
    """All set partitions of range(n) as lists of bitmasks (restricted-growth order)."""
    parts: list[int] = []

    def rec(i: int):
        if i == n:
            yield list(parts)
            return
        bit = 1 << i
        for j in range(len(parts)):
            parts[j] |= bit
            yield from rec(i + 1)
            parts[j] ^= bit
        parts.append(bit)
        yield from rec(i + 1)
        parts.pop()

    yield from rec(0)


def _check_res_oracle(counter: NodeCounter) -> tuple[bool, str]:
    checked = 0
    for spec in ORACLE_SPECS:
        G = grid_group(spec)
        n = G.order
        for kappa in range(2, n + 1):
            limit = kappa - 1
            best = {"left": 0, "left+right": 0}
            for parts in _all_set_partitions(n):
                counter.spend()
                left_ok = True
                both_ok = True
                for m in parts:
                    if cl.min_cover_size(G, m, "left", counter) > limit:
                        left_ok = both_ok = False
                        break
                    if cl.min_cover_size(G, m, "right", counter) > limit:
                        both_ok = False
                if left_ok:
                    best["left"] = max(best["left"], len(parts))
                if both_ok:
                    best["left+right"] = max(best["left+right"], len(parts))
            for mode in ("left", "left+right"):
                got = charged(counter, res_search, G, kappa, mode)
                if got.cells != best[mode] or not got.optimal:
                    return False, (
                        f"mismatch at {spec} kappa={kappa} mode={mode}: "
                        f"search={got.cells}, oracle={best[mode]}"
                    )
                checked += 1
    return True, f"{checked} (group, kappa, mode) resolvability values match the set-partition oracle"


def _check_res_pinned(counter: NodeCounter) -> tuple[bool, str]:
    expected = (
        ("cyclic:4", 3, 2),
        ("cyclic:4", 2, 1),
        ("cyclic:6", 4, 3),
    )
    for spec, kappa, cells in expected:
        got = charged(counter, res_search, grid_group(spec), kappa, "left")
        if got.cells != cells or not got.optimal:
            return False, f"res({spec}, kappa={kappa}) = {got.cells}, expected {cells}"
    return True, "pinned values: res(cyclic:4,3)=2, res(cyclic:4,2)=1, res(cyclic:6,4)=3"


def _check_two_thick_probe(counter: NodeCounter) -> tuple[bool, str]:
    G = grid_group("cyclic:6")
    got = charged(counter, partition_search, G, 3, 2, "all-thick")
    if got.found is None or not got.exhaustive:
        return False, "no two-cell all-thick partition found"
    cells = tuple(cell.indices() for cell in got.found.cells)
    for cell in got.found.cells:
        if not charged(counter, is_thick, G, cell, 3, "left", "witness-in-G").verdict:
            return False, f"cell {cell} failed thickness re-verification"
    if cells != ((0, 1, 3), (2, 4, 5)):
        return False, f"non-canonical probe outcome {cells}"
    return True, f"cells {{0,1,3}} | {{2,4,5}} are both left 3-thick; {THICK_PROBE_NOTE}"


#: Suite name -> its (claim_id, anchor, check) triples, in report order.
SUITES: dict[str, tuple[Claim, ...]] = {
    "duality": (
        *_grid(
            "duality",
            "any-translate thickness equals non-largeness of the complement, per side",
            _check_duality,
        ),
        *_grid(
            "variant-chain",
            "in-A thick at kappa implies in-G thick at kappa implies in-A thick at kappa-1",
            _check_variant_chain,
        ),
        (
            "variant-divergence.cyclic:2",
            "the two thickness variants split at the finite boundary",
            _check_divergence,
        ),
        *_grid(
            "inversion",
            "largeness and thickness swap sides under subset inversion",
            _check_inversion,
        ),
        *_grid(
            "lattice",
            "two-sided thick implies one-sided thick; one-sided large implies two-sided large",
            _check_lattice,
        ),
        *_grid(
            "small-not-large",
            "a small subset is never large on the same side",
            _check_small_not_large,
        ),
    ),
    "meets": _grid(
        "meets", "every left thick subset meets every left large subset", _check_meets
    ),
    "s-set": (
        (
            "s-set.sandwich",
            "K(.)K with K = {1, a, a'} maps every word into the endpoint-marked set",
            _check_s_sandwich,
        ),
        (
            "s-set.power-witness",
            "b^4 escapes H*S for H the radius-3 ball on two letters",
            _check_s_power_witness,
        ),
        (
            "s-set.fresh-letter-witness",
            "a letter unused by the adversary escapes H*S on four letters",
            _check_s_fresh_letter_witness,
        ),
        ("s-set.symmetric", "the endpoint-marked set equals its inverse", _check_s_symmetric),
    ),
    "thm3": (
        (
            "thm3.partition",
            "the last-letter split is a verified two-cell partition",
            _check_thm3_partition,
        ),
        (
            "thm3.witnesses",
            "each cell escapes covering by its letter-avoiding adversary",
            _check_thm3_witnesses,
        ),
        (
            "thm3.suffix-stability",
            "cell membership is a function of the length-1 suffix",
            _check_thm3_suffix_stability,
        ),
    ),
    "comment1": (
        (
            "comment1.partitions",
            "all four three-cell-family constructions partition their balls",
            _check_c1_partitions,
        ),
        (
            "comment1.rank2-witnesses",
            "power and alternating words escape the covered rank-2 cells",
            _check_c1_rank2_witnesses,
        ),
        (
            "comment1.rank2-factor-stability",
            "rank-2 cell membership is a function of the length-2 end factors",
            _check_c1_rank2_factor_stability,
        ),
        (
            "comment1.split3-endpoint-stability",
            "3-split cell membership is a function of the endpoint letters",
            _check_c1_split3_endpoint_stability,
        ),
        (
            "comment1.rank1-blocks",
            "doubling blocks are mirrored and outgrow every translate window",
            _check_c1_rank1_blocks,
        ),
        (
            "comment1.meet",
            "meeting a non-large 2-cell partition with its inverse keeps every cell non-large both ways",
            _check_c1_meet,
        ),
    ),
    "comment2": (
        (
            "comment2.support-preservation",
            "conjugation in a direct sum never changes the support",
            _check_c2_support,
        ),
        (
            "comment2.bset-witness",
            "the top-mark set escapes covering by adversaries supported below",
            _check_c2_witness,
        ),
    ),
    "oracle": (
        (
            "oracle.thick-to-large",
            "the cover-based construction turns left thickness into a right cover",
            _check_thick_to_large,
        ),
        (
            "oracle.res-vs-bruteforce",
            "resolvability search equals the brute-force set-partition maximum",
            _check_res_oracle,
        ),
        ("oracle.res-pinned", "pinned resolvability values reproduce", _check_res_pinned),
        (
            "oracle.two-thick-probe",
            "a two-cell all-left-thick partition exists at finite scale",
            _check_two_thick_probe,
        ),
    ),
}


def run_suite(name: str, node_budget: int = DEFAULT_NODE_BUDGET) -> list[ClaimRecord]:
    """The records of the named suite's claims, or of every suite's for
    "all", in table order. Each claim spends from its own counter of
    node_budget nodes and is inconclusive when that runs out.

    The grid tables, and the classify caches on them, are built afresh for
    each run and shared only within it, so the records do not depend on
    what ran before in the process."""
    if name == "all":
        claims = [claim for suite in SUITES.values() for claim in suite]
    elif name in SUITES:
        claims = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    grid_group.cache_clear()
    records = []
    for claim_id, anchor, check in claims:
        counter = NodeCounter(node_budget)
        t0 = time.perf_counter()
        try:
            ok, detail = check(counter)
            status = "pass" if ok else "fail"
        except BudgetExceeded:
            status, detail = "inconclusive", "node budget exhausted"
        records.append(
            ClaimRecord(
                claim_id, anchor, status, detail, counter.spent, time.perf_counter() - t0
            )
        )
    return records
