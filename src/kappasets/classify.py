"""Exact, witness-producing classifiers for the subset size notions.

Every table the searches read is one family of translates of A, built
once per side and subset. On one side it is the list t[g] = g*A (left)
or A*g (right) that _translates builds and keeps, for the few subsets
most recently built, in a bounded per-group memo. A minimal cover F of G
is a set of indices whose translates t[f] cover G. The thickness tables
are the same translates at inverse indices: f*x lies in A iff x lies in
f^-1*A = t[f^-1] (x*f in A iff x in A*f^-1 on the right), so a test set
F fails exactly when every candidate x lies outside t[f^-1] for some f
in F, and the least failing F is a minimal cover of the candidates by
the masks candidates minus t[f^-1]. Both reduce to one exact hitting-set
step, _tighten. Given bounds on the least number of sets that cover and
a size k between them, it proves k by the greedy pass stopped once it
passes k, and else decides k by branch and bound on the uncovered
element with the fewest options (the column rule of Knuth's Algorithm
X). Once the bounds meet, _lex_least finds the lex-least cover of that
size by one index-order search; the one F of 0 or |G| elements is
answered without it. The two searches stay apart: deciding by the
index-order search is about 3.6 times slower on subsets of groups of
order 20-24, and a lex phase by branching halves the time there but
spends 15% more nodes on the small groups of the classify commands, so
choosing the lex phase by group order waits for a benchmark workload at
those orders.

A translate is the sum of A's entries in one of the per-group bit rows
rows[g][a] = 1 << g*a (left) or 1 << a*g (right), built once per group and
side. The kernel's option lists, for each element the indices whose set
holds it, are read off the group too, never transposed from the sets: e
lies in f*A iff f lies in e*A^-1 (A*f: A^-1*e), so a cover's options are
the translates of A^-1; a candidate x lies outside t[f^-1] iff f lies
outside dom(x) = A*x^-1 (x^-1*A), so a thickness search's options are the
complements of the dom masks it enters in the size table.

The two-sided notions read the per-pair rows f1*A*f2, from which
_pair_walks builds two walk tables once per subset and caches them. One
lex-order walk, _sweep_translates, visits the F of one size and keeps a
mask per F: the cover walk starts from G and removes f1*A*f2 for every
pair of F, so the first F that leaves nothing covers G; the thickness
walk starts from the candidates and keeps f1^-1*A*f2^-1, since f1*x*f2
lies in A iff x lies there, so the first F that leaves nothing fails.
The walk returns that F and keeps nothing else. Each scan walks the
sizes upward from its counting floor, _cover_floor: below it no F can
cover G, or exclude every candidate. The walk's last index is looped
inside its parent's loop, with no call or narrowed table per F, and
still spends one node per F, so a budget stops it at the same F every
time. For the any-translate thickness variant the two routes are
cross-checked against each other on every call: A is left thick exactly
when its complement is not left large, and likewise per side. The
witness-in-G profile is therefore searched, never derived from the
complement's cover, so that this check and the duality claims compare two
independent searches.

Callers outside this module ask two numbers per subset: min_cover_size,
the least |F| with FA = G (AF = G, FAF = G), so A is kappa-large iff it is
at most kappa-1; and thick_lmax, the largest test-set size that always
translates into A, so A is kappa-thick iff kappa-1 is at most it. No F
covers G from the empty set, and its cover number is |G| + 1, which
exceeds kappa-1 for every admissible kappa; the empty set is then never
large, without a special case at the caller. A caller that reads only
whether the cover number is at most kappa-1 asks the decision
cover_within at k = kappa-1: is_large, which searches a witness only for
a large A, the partition searches' cell tests, is_small's scan and
re-check, and is_thick's duality cross-check.

Both numbers run one size step, _cover_bounds. It reads a (lower, upper)
pair for the least number of sets that hold its target, raises the lower
end to the counting floor at no node cost, and decides the sizes it is
asked: size n without search, since the one F of n elements holds the
target or no F does; below n, one side by _tighten, two-sided by walking
the sizes from the lower bound up, where a hit is the exact number and
its F the (size, lex)-least. With its lex phase it also returns that F. It has two
callers. _cover_step asks it for the cover number: cover_within for k
alone, min_cover_size for each size until the pair is exact, and
_min_cover with the lex phase. _thick_profile asks it, with the lex
phase, for the least failing test set.

Both one-sided numbers are translation invariant: F*(g*A) = (F*g)*A and
(A*g)*F = A*(g*F) keep the cover number, and since F*x lands in A*h iff
F*(x*h^-1) lands in A, and x lies in A*h iff x*h^-1 lies in A (mirrored
on the right), thick_lmax keeps in both variants. A one-sided search
already holds translates of A: the cover masks f*A (A*f), and the sets
dom(x) = A*x^-1 (x^-1*A) of the f that take a candidate x into A, which
are the mirror-side translates at x^-1. When it finishes it enters its
pair for each of them in one per-group size table, "cover_size", keyed
(side, mask) for the cover number and (side, variant, mask) for the
least failing size; _cover_bounds is its one writer. A pair is exact
when its two ends are equal, and the table is read before any search,
at no node cost. A search cut off by its budget enters nothing.
Witnesses are not translated: the lex-least cover of g*A is not g times
that of A, so _min_cover and _thick_profile, with their exact-key
"cover" and "profile" caches, still search A itself. The two-sided
numbers are not invariant in general (F*(g*A)*F translates only the
inner factor): a two-sided cover pair is entered for A itself alone, and
a two-sided thickness number lives in the "profile" cache alone.

All searches are deterministic; witnesses are minimal in (size, lex) order
and re-verified against the raw definitions before they are returned, by
one routine, _rechecked, on one check per definition. _covers forms F*A
(A*F, F*A*F) as a set of products read from G.mul, which must hold |G|
elements: a large A's cover must give G, and so must the cover _min_cover
finds for a failing small L; thick_to_large_witness checks its A*F by it
too. _least_translating reads the least x that translates F into A off
the multiplication table, one list of products per candidate; a failing
F must have none, and each entry a thick=True witness shows must have its
element as the least. is_large, is_thick and is_small share one frame,
_classified: it checks the arguments, opens the claim's one NodeCounter,
and runs the decision and then _rechecked on it, so a budget that runs
out in either makes the verdict inconclusive.

A thick=True verdict is also checked on every maximal test set of size
kappa-1, by _thick_witness_map. When there are more of them than entries
in the thickness table (one per f, and two-sided one per pair f1 < f2 as
well) and the entries one F reads cannot exclude every candidate by the
pigeonhole count, each entry's count of excluded candidates is read from
the multiplication table and must equal the table's. Otherwise the same
walk at size kappa-1 over the one thickness table, _thick_walk (the rows
t[f^-1] on one side, the two-sided thickness table otherwise), must find
no failing F; the walk returns only F. After either route the shown
entries are read from that table one way: the first SHOWN_TRANSLATES F
in lex order, each with the lowest candidate its entries leave.

In an abelian group g*A = A*g, so every one-sided notion is the same on
the two sides. The classifiers still search each side they are asked;
the classify battery searches one side and hands its verdict to the
other through mirrored, a relabel plus _rechecked on the new side, where
a failing L's cover is the one _min_cover found on the searched side.
The walk or count over every maximal F is not repeated: the two sides'
thickness tables agree entry for entry.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref

from .groups import (
    GroupTable,
    Record,
    Subset,
    bits,
    check_kappa,
    check_partition,
    check_subset,
    inverse_mask,
    mask_of,
)
from .words import Ball, Word, WordSetPredicate, concat, inverse

SIDES = ("left", "right", "two-sided")
VARIANTS = ("witness-in-A", "witness-in-G")

DEFAULT_NODE_BUDGET = 10**8


class BudgetExceeded(Exception):
    """Internal: a search ran out of its node budget."""


class NodeCounter:
    __slots__ = ("spent", "budget")

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError(f"node budget must be >= 0, got {budget}")
        self.spent = 0
        self.budget = budget

    def spend(self, k: int = 1) -> None:
        self.spent += k
        if self.spent > self.budget:
            raise BudgetExceeded


def charged(counter: NodeCounter, search, *args):
    """search(*args) run on what is left of counter's budget, its nodes then
    charged to counter. A search that runs out reports more nodes than it was
    given, so the charge raises BudgetExceeded."""
    got = search(*args, node_budget=counter.budget - counter.spent)
    counter.spend(got.nodes)
    return got


def check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


class SizeVerdict(Record):
    """Outcome of a size classification: notion, side, kappa, verdict,
    variant (default None), witness (default None) and nodes (default 0).

    verdict None means the node budget ran out (inconclusive, never a
    guess). The witness depends on the notion: the minimal cover F for
    large=True; a ThickWitness (every maximal F checked, the first few shown
    with their least translating element) for thick=True; the minimal
    failing F for thick=False; the failing large L for small=False.
    """

    __slots__ = ("notion", "side", "kappa", "verdict", "variant", "witness", "nodes")
    _defaults = (None, None, 0)


#: Maximal test sets a thick=True witness shows with their translating element.
SHOWN_TRANSLATES = 4


class ThickWitness(Record):
    """Witness of thick=True, with fields shown and total: every maximal
    test set F was checked against the table, by a walk or by the pigeonhole
    count. shown holds the first SHOWN_TRANSLATES of them in lex order, as
    (F, its least translating element) pairs read from the table after
    either route; total, also len(), is the number checked."""

    __slots__ = ("shown", "total")

    def __len__(self) -> int:
        return self.total


# -- per-group memoization -----------------------------------------------------

_caches: "weakref.WeakKeyDictionary[GroupTable, dict]" = weakref.WeakKeyDictionary()


def _cache(G: GroupTable) -> dict:
    c = _caches.get(G)
    if c is None:
        c = {
            "cover": {}, "profile": {}, "pair": {}, "cover_size": {}, "bit_rows": {},
            "translates": {},
        }
        _caches[G] = c
    return c


# -- largeness: minimal covers -------------------------------------------------


def _bit_rows(G: GroupTable, side: str) -> list[list[int]]:
    """rows[g][a] = 1 << g*a (left) or 1 << a*g (right), built once per
    group and side."""
    tables = _cache(G)["bit_rows"]
    rows = tables.get(side)
    if rows is None:
        bit = [1 << g for g in range(G.order)]
        mul = G.mul if side == "left" else list(zip(*G.mul))
        tables[side] = rows = [list(map(bit.__getitem__, row)) for row in mul]
    return rows


#: How many (side, A) translate tuples a group keeps, the most recently built.
TRANSLATE_MEMO = 8


def _translates(G: GroupTable, amask: int, side: str, at=None) -> list[int]:
    """g*A (left) or A*g (right) for each g in at, every g by default: the
    sum of the bit rows at A's elements, which are distinct. The translates
    at every g are built once, kept as a tuple in a per-group memo of the
    TRANSLATE_MEMO most recently built, and read into a new list."""
    memo = _cache(G)["translates"]
    key = (side, amask)
    got = memo.get(key)
    if got is None:
        rows = _bit_rows(G, side)
        elems = list(bits(amask))
        got = tuple([sum(map(row.__getitem__, elems)) for row in rows])
        if len(memo) >= TRANSLATE_MEMO:
            del memo[next(iter(memo))]
        memo[key] = got
    return list(got) if at is None else list(map(got.__getitem__, at))


def _tighten(
    covers: list[int], options, full: int, maxcover: int, k: int,
    known: tuple[int, int], counter: NodeCounter,
) -> tuple[int, int]:
    """known, the (lower, upper) bounds on how few covers hold full, at
    least the counting bound |full| / maxcover and with lower <= k < upper,
    tightened by deciding whether k covers do: the greedy pass proves it
    when it holds full within k covers, else one exact search at k
    decides, over the option lists that options() returns."""
    lo, hi = known
    got = _greedy(covers, full, k)
    if got is None and _hits_within(full, k, (1 << len(covers)) - 1, covers, options(), maxcover, counter):
        got = k
    return (k + 1, hi) if got is None else (lo, got)


def _greedy(covers: list[int], full: int, cap: int) -> int | None:
    """How many covers the greedy pass takes to hold full (each time the
    index adding most new elements, least on ties), or None once it has
    taken cap without holding it."""
    got = taken = 0
    while got != full:
        if taken == cap:
            return None
        news = [(c & ~got).bit_count() for c in covers]
        got |= covers[news.index(max(news))]
        taken += 1
    return taken


def _hits_within(
    uncovered: int, k: int, allowed: int, covers: list[int], opts: list[int], maxcover: int,
    counter: NodeCounter,
) -> bool:
    """Some k indices in allowed cover uncovered (nonempty): branch on the
    uncovered element with the fewest allowed options."""
    counter.spend()
    if uncovered.bit_count() > k * maxcover:
        return False
    fewest = len(covers) + 1
    choice = 0
    u = uncovered
    while u:
        low = u & -u
        o = opts[low.bit_length() - 1] & allowed
        c = o.bit_count()
        if c < fewest:
            fewest = c
            choice = o
            if c <= 1:
                break
        u ^= low
    while choice:
        low = choice & -choice
        rest = uncovered & ~covers[low.bit_length() - 1]
        if not rest or (k > 1 and _hits_within(rest, k - 1, allowed, covers, opts, maxcover, counter)):
            return True
        allowed ^= low  # later branches never use an index tried here
        choice ^= low
    return False


def _lex_least(
    covers: list[int], full: int, size: int, maxcover: int, counter: NodeCounter
) -> tuple[int, ...]:
    """The lex-least size indices whose covers hold full, when size is the
    least number that do."""
    n = len(covers)
    # dead[i]: elements with no option at index >= i
    dead = [full] * (n + 1)
    for i in range(n - 1, -1, -1):
        dead[i] = dead[i + 1] & ~covers[i]
    chosen: list[int] = []
    if not _lex_first(full, size, 0, covers, dead, maxcover, chosen, counter):
        raise RuntimeError("hitting-set lex phase found no witness")  # pragma: no cover
    return tuple(chosen)


def _lex_first(
    uncovered: int, k: int, start: int, covers: list[int], dead: list[int], maxcover: int,
    chosen: list[int], counter: NodeCounter,
) -> bool:
    """Append to chosen the lex-first k indices >= start covering uncovered."""
    counter.spend()
    for f in range(start, len(covers)):
        if uncovered & dead[f]:
            return False
        rest = uncovered & ~covers[f]
        if not rest:
            chosen.append(f)
            return True
        if k > 1 and rest.bit_count() <= (k - 1) * maxcover and not rest & dead[f + 1]:
            chosen.append(f)
            if _lex_first(rest, k - 1, f + 1, covers, dead, maxcover, chosen, counter):
                return True
            chosen.pop()
    return False


def _meet(rows: list[list[int]]) -> list[list[int]]:
    """rows[i][j] & rows[j][i] at every (i, j)."""
    return [list(map(int.__and__, r, c)) for r, c in zip(rows, zip(*rows))]


def _pair_walks(G: GroupTable, amask: int) -> tuple[tuple, tuple]:
    """The two-sided walk tables of A, (cols, pairs) for the cover and for
    the thickness, built once per subset from the per-pair rows
    rows[f1][f2] = f1*A*f2. The walk reads a pair (i, i) of F's labels at
    cols[i] and a pair (i, j) with i < j at pairs[i][j], which covers (j, i)
    too. The cover labels F by itself and reads the complements of the
    rows; the thickness labels F by its inverses and reads the rows, since
    f1*x*f2 lies in A iff x lies in f1^-1*A*f2^-1. In an abelian group
    f1*A*f2 = (f1*f2)*A, so the rows are read off A's left translates, and
    both tables are symmetric, which leaves the meets nothing to do."""
    cache = _cache(G)["pair"]
    got = cache.get(amask)
    if got is None:
        n, full, inv = G.order, G.full_mask, G.inv
        if abelian(G):
            t = _translates(G, amask, "left")
            ct = [full - m for m in t]
            rows = [list(map(t.__getitem__, row)) for row in G.mul]
            out = [list(map(ct.__getitem__, row)) for row in G.mul]
            pairs_out, both = out, rows
        else:
            # f1*A*f2 is the sum of shifted[g][f2] = 1 << g*f2 over g in f1*A
            shifted = _bit_rows(G, "left")
            elems = list(bits(amask))
            rows = [list(map(sum, zip([0] * n, *(shifted[row[a]] for a in elems)))) for row in G.mul]
            out = [list(map(full.__sub__, row)) for row in rows]
            pairs_out, both = _meet(out), _meet(rows)
        cover = ([out[i][i] for i in range(n)], pairs_out)
        thick = ([rows[i][i] for i in inv], [list(map(both[i].__getitem__, inv)) for i in inv])
        cache[amask] = got = (cover, thick)
    return got


def _sweep_translates(
    prefix: tuple[int, ...], depth: int, inter: int, cols: list[int],
    pairs: list[list[int]] | None, counter: NodeCounter,
) -> tuple[int, ...] | None:
    """The first F, in lex order, that extends prefix by depth more indices
    and has an empty mask; None when every such F has elements left. inter
    is the mask the prefix leaves, cols[l] what l keeps once it joins;
    pairs[f][l] narrows cols[l] when f joins (two-sided). The walk returns
    F and nothing else. At depth 2 the last index l runs inside the loop
    over f and tests keep & cols[l] & pairs[f][l] (one-sided keep &
    cols[l]), with no narrowed list built. The last index spends one node
    per F, before its test, at depth 2 as at depth 1, so the budget runs
    out (or the walk stops) at the same F on every call."""
    n = len(cols)
    start = prefix[-1] + 1 if prefix else 0
    if depth == 2:  # the last index runs inside its parent's loop
        for f in range(start, n - 1):
            keep = inter & cols[f]
            row = cols if pairs is None else pairs[f]  # one side: cols[l] & cols[l] is cols[l]
            for l in range(f + 1, n):
                counter.spend()
                if not keep & cols[l] & row[l]:
                    return (*prefix, f, l)
        return None
    if depth > 2:
        for f in range(start, n - depth + 1):
            nxt = cols if pairs is None else list(map(int.__and__, cols, pairs[f]))
            got = _sweep_translates((*prefix, f), depth - 1, inter & cols[f], nxt, pairs, counter)
            if got is not None:
                return got
        return None
    for f in range(start, n):
        counter.spend()
        if not inter & cols[f]:
            return (*prefix, f)
    return None


def _first_empty(
    sizes: range, inter: int, walk: tuple, counter: NodeCounter
) -> tuple[int, ...] | None:
    """The first F by size, then lex, whose walk mask is empty: the empty F
    when inter is. Like _sweep_translates, it returns only F."""
    if not inter:
        return ()
    for s in sizes:
        got = _sweep_translates((), s, inter, *walk, counter)
        if got is not None:
            return got
    return None


def abelian(G: GroupTable) -> bool:
    """Whether G is abelian, read from its table once per group."""
    c = _cache(G)
    if "abelian" not in c:
        c["abelian"] = G.is_abelian()
    return c["abelian"]


def _cover_floor(G: GroupTable, per: int, need: int, side: str) -> int:
    """Least s >= 0 with pairs(s)*per >= need, |G| + 1 when no s has (per
    is 0 and need is not): the least |F| whose sets, per elements each, can
    together hold need elements. pairs(s) counts the sets an F of s elements
    gives: s one-sided, and s^2 pairs (f1, f2) two-sided, or s(s+1)/2 in an
    abelian group, where f1*A*f2 = f1*f2*A depends on f1*f2 alone. An empty
    target (witness-in-A, A empty) needs no set, so its floor is 0.

    The cover floor takes per = |A| and need = |G|, since |F*A| <= |F|*|A|
    and |F*A*F| <= pairs(|F|)*|A|. The one-sided thickness floor takes the
    most candidates one f excludes as per, and need = |candidates|. The
    two-sided one takes per = |G| - |A|: a pair excludes the |G| - |A|
    candidates x with f1*x*f2 outside A, as x -> f1*x*f2 is a bijection, and
    F fails only when its pairs exclude every candidate."""
    if not need:
        return 0
    if not per:
        return G.order + 1
    least = -(-need // per)
    if side != "two-sided":
        return least
    if abelian(G):
        s = (math.isqrt(8 * least + 1) - 1) // 2  # the largest s with s(s+1)/2 <= least
        return s if s * (s + 1) // 2 == least else s + 1
    return math.isqrt(least - 1) + 1


def _cover_bounds(
    G: GroupTable, key: tuple, target: int, per: int, sets, options, keys, k: int | None,
    counter: NodeCounter, lex: bool = False,
) -> tuple[int, int, tuple[int, ...] | None]:
    """What is known of the least number of sets that hold target, a
    (lower, upper) pair, once size k has been decided if the pair leaves it
    open (k None: each size from the lower bound up, until the pair is
    exact); and with lex, the (size, lex)-least F of that number, None when
    no F holds target.

    key is (side, mask) for a cover number and (side, variant, mask) for a
    least failing test set; per is the most elements one set holds. The
    pair is read from the size table, and _cover_floor raises its lower end,
    both at no node cost. sets are the sets (the walk table two-sided),
    options() returns the option lists one side, and keys are the keys to
    enter. k = n is decided without search: the one F of n elements holds
    the target, or no F does and the pair is n + 1. Below n, one side
    decides k by _tighten. Two-sided walks the sizes from the lower bound up
    to k, and a hit is the exact number with its (size, lex)-least F. The
    lex phase runs _lex_least one side, but the one F of 0 or n elements is
    answered without search. Only then, when some size was decided, is the
    pair entered for every key, one tuple shared by all of them, so a search
    cut off by its budget enters nothing. A two-sided pair is exact below n
    only after a hit, whose F _cover_step records, and a two-sided thickness
    key enters nothing, so two-sided never reaches _lex_least.
    """
    n, side, tables = G.order, key[0], _cache(G)
    lo, hi = tables["cover_size"].get(key, (0, n + 1))
    lo = max(lo, _cover_floor(G, per, target.bit_count(), side))
    decided, combo = False, None
    for size in range(lo, hi) if k is None else (k,):
        if not lo <= size < hi:
            continue
        decided = True
        if size == n:  # the one F of n elements: what it leaves of the target lies
            # outside every set, or two-sided in every pair's walk mask
            kept = itertools.chain(*sets[1]) if side == "two-sided" else (~s for s in sets)
            lo, hi = (n + 1, n + 1) if functools.reduce(int.__and__, kept, target) else (lo, n)
        elif side == "two-sided":
            combo = _first_empty(range(lo, size + 1), target, sets, counter)
            lo, hi = (size + 1, hi) if combo is None else (len(combo),) * 2
        else:
            lo, hi = _tighten(sets, options, target, per, size, (lo, hi), counter)
    if lex and combo is None and lo <= n:
        if lo in (0, n):
            combo = tuple(range(lo))
        else:  # one side: two-sided, only a hit makes a pair exact below n
            combo = _lex_least(sets, target, lo, per, counter)
    if decided:
        tables["cover_size"].update(dict.fromkeys(keys, (lo, hi)))
    return lo, hi, combo


def _cover_step(
    G: GroupTable, amask: int, side: str, k: int | None, counter: NodeCounter, lex: bool = False
) -> tuple[int, int, tuple[int, ...] | None]:
    """_cover_bounds for A's cover number: the target is G and each set, a
    translate f*A (A*f) or a pair's f1*A*f2, holds |A| elements. One side
    reads the translates of A^-1 as options, from the translate memo at each
    exact search, since a greedy proof needs none: e lies in f*A (A*f) iff f
    lies in e*A^-1 (A^-1*e). The pair is entered for each translate of A, A
    itself two-sided, where an F found is recorded in the "cover" cache."""
    if side == "two-sided":
        sets, options, keys = _pair_walks(G, amask)[0], None, [(side, amask)]
    else:
        sets = _translates(G, amask, side)
        options, keys = lambda: _translates(G, inverse_mask(G, amask), side), ((side, m) for m in sets)
    lo, hi, combo = _cover_bounds(G, (side, amask), G.full_mask, amask.bit_count(), sets, options, keys, k, counter, lex)
    if side == "two-sided" and combo is not None:
        _cache(G)["cover"][side, amask] = (lo, combo)
    return lo, hi, combo


def _min_cover(
    G: GroupTable, amask: int, side: str, counter: NodeCounter
) -> tuple[int, tuple[int, ...]] | None:
    """Minimal (size, lex) F with F*A = G (left), A*F = G (right) or
    F*A*F = G (two-sided); None when A is empty. _cover_step with its lex
    phase finds it; a two-sided walk that found the size has already
    recorded F in the "cover" cache."""
    cache = _cache(G)["cover"]
    key = (side, amask)
    if key not in cache:
        size, _, combo = _cover_step(G, amask, side, None, counter, lex=True)
        cache[key] = None if combo is None else (size, combo)
    return cache[key]


def min_cover_size(G: GroupTable, amask: int, side: str, counter: NodeCounter) -> int:
    """Least |F| covering G from A on the given side; |G| + 1 for the empty
    set, which no F covers. Each size from the lower bound up is decided
    until the pair is exact; an exact pair in the size table, found for A
    or a translate, is read at no node cost. A side not in SIDES raises
    ValueError."""
    check_side(side)
    lo, hi = _cache(G)["cover_size"].get((side, amask), (0, G.order + 1))
    return lo if lo == hi else _cover_step(G, amask, side, None, counter)[0]


def cover_within(G: GroupTable, amask: int, side: str, k: int, counter: NodeCounter) -> bool:
    """Some F with |F| <= k has F*A = G (left), A*F = G (right) or
    F*A*F = G (two-sided): A is kappa-large iff this holds at k = kappa-1.

    What the size table holds for A decides first, and then the counting
    bound refutes (as it does for the empty set), both at no node cost,
    with no table built and nothing entered; else _cover_step decides k.
    The side is not checked here, since the classifiers and the partition
    searches call this on every query: its callers pass a checked side.
    """
    lo, hi = _cache(G)["cover_size"].get((side, amask), (0, G.order + 1))
    if lo <= k < hi and _cover_floor(G, amask.bit_count(), G.order, side) <= k:
        hi = _cover_step(G, amask, side, k, counter)[1]
    return hi <= k


# -- thickness: least failing test sets ---------------------------------------


def _thick_walk(G: GroupTable, amask: int, side: str) -> tuple:
    """The thickness walk table of A, (cols, pairs): the rows t[f^-1] and
    no pairs one-sided, the two-sided thickness table of _pair_walks
    otherwise. A candidate x passes f in F when it lies in cols[f]."""
    if side == "two-sided":
        return _pair_walks(G, amask)[1]
    return _translates(G, amask, side, G.inv), None


def _thick_profile(
    G: GroupTable, amask: int, side: str, variant: str, counter: NodeCounter
) -> tuple[int, tuple[int, ...] | None]:
    """Return (lmax, fail_F): thickness holds at kappa iff kappa-1 <= lmax.

    fail_F is the (size, lex)-minimal F admitting no translating element;
    it has size lmax+1, or is None when every F up to size n-1 passes. It
    is the least cover of the candidates that _cover_bounds finds with its
    lex phase. One-sided: F fails exactly when every candidate x lies
    outside the translate f^-1*A (A*f^-1) of some f in F, so the sets are
    the candidates minus that translate, and the options of x are the f
    outside dom(x) = A*x^-1 (x^-1*A). Its number is entered for every
    dom(x) in the size table, under (side, variant, dom(x)). Two-sided: F
    fails when no candidate lies in f1^-1*A*f2^-1 for every pair of F, the
    sets are walked, and nothing is entered; for A = G no size is walked.
    With no candidate (witness-in-A, A empty) the empty F fails, so lmax
    is -1, at no node cost.
    """
    cache = _cache(G)["profile"]
    key = (side, variant, amask)
    if key not in cache:
        n = G.order
        cand = amask if variant == "witness-in-A" else G.full_mask
        walk = _thick_walk(G, amask, side)
        if side == "two-sided":
            per, sets, options, keys = n - amask.bit_count(), walk, None, ()
        else:
            # dom(x), the f with f*x (x*f) in A, is the mirror translate at x^-1;
            # x lies in cand minus t[f^-1] iff f lies outside dom(x)
            mirror = "right" if side == "left" else "left"
            xs = list(bits(cand))
            doms = _translates(G, amask, mirror, [G.inv[x] for x in xs])
            opts = [0] * n
            for x, dom in zip(xs, doms):
                opts[x] = G.full_mask ^ dom
            sets = [cand & ~col for col in walk[0]]
            per = max(map(int.bit_count, sets))
            options, keys = lambda: opts, ((side, variant, m) for m in doms)
        lo, _, fail = _cover_bounds(G, key, cand, per, sets, options, keys, None, counter, lex=True)
        cache[key] = (n - 1, None) if lo >= n else (lo - 1, fail)
    return cache[key]


def thick_lmax(G: GroupTable, amask: int, side: str, variant: str, counter: NodeCounter) -> int:
    """Largest l such that every test set F with |F| <= l translates into A
    (by an element of A for witness-in-A, of G for witness-in-G): A is
    kappa-thick iff kappa-1 <= thick_lmax. It is -1 for witness-in-A and
    the empty set, and |G| - 1 when every proper F passes. A one-sided
    number already found for a translate of A is read from the size table
    at no node cost: the table holds the least failing size, |G| + 1 when
    no F fails, and thick_lmax is the lesser of it and |G|, minus one. A
    side not in SIDES or a variant not in VARIANTS raises ValueError."""
    check_side(side)
    check_variant(variant)
    lo, hi = _cache(G)["cover_size"].get((side, variant, amask), (0, G.order + 1))
    return min(lo, G.order) - 1 if lo == hi else _thick_profile(G, amask, side, variant, counter)[0]


def _excluded(G: GroupTable, entry: tuple[int, ...], cand: int, amask: int, side: str) -> int:
    """How many x in cand a thickness table entry excludes by the raw
    definition: for (f,) (one side), f*x (x*f) lies outside A; for (f1, f2)
    (two-sided), f1*x*f2 or f2*x*f1 does, so (f, f) reads f*x*f alone."""
    mul = G.mul
    if side == "left":
        return sum(not amask >> mul[entry[0]][x] & 1 for x in bits(cand))
    if side == "right":
        return sum(not amask >> mul[x][entry[0]] & 1 for x in bits(cand))
    f1, f2 = entry
    return sum(
        not amask >> mul[mul[f1][x]][f2] & amask >> mul[mul[f2][x]][f1] & 1 for x in bits(cand)
    )


def _least_translating(G: GroupTable, fmask: int, cand: int, amask: int, side: str) -> int | None:
    """The least x in cand that translates F into A by the raw definition:
    F*x (x*F, F*x*F) lies in A. None when no candidate does. F's elements
    and their rows of the table (which F*x and F*x*F read) are read once;
    each candidate is tested with one list of its products."""
    mul, fs, inside = G.mul, list(bits(fmask)), set(bits(amask))
    rows = [mul[f] for f in fs]
    for x in range(G.order):
        if cand >> x & 1:
            if side == "left":
                prods = [row[x] for row in rows]
            elif side == "right":
                prods = list(map(mul[x].__getitem__, fs))
            else:
                prods = [mul[row[x]][f] for row in rows for f in fs]
            if inside.issuperset(prods):
                return x
    return None


def _covers(G: GroupTable, F: Subset, A: Subset, side: str) -> bool:
    """Raw-definition check that F covers G from A: F*A = G (left), A*F = G
    (right) or F*A*F = G (two-sided), formed as a set of products read from
    the table, whose size must be |G|."""
    mul, fs = G.mul, list(bits(F.mask))
    got = list(bits(A.mask))
    if side != "right":  # F*A
        got = {mul[f][a] for f in fs for a in got}
    if side != "left":  # times F on the right: A*F, or (F*A)*F
        got = {mul[a][f] for a in got for f in fs}
    return len(got) == G.order


def _rechecked(
    G: GroupTable, A: Subset, notion: str, side: str, kappa: int, variant: str | None,
    w, searched_side: str, counter: NodeCounter,
) -> None:
    """Re-check w, a decided verdict's witness, on side against the raw
    definitions: a cover F must cover G from A and hold at most kappa-1
    elements; a failing F must hold at most kappa-1 and have no
    translating element; each F a ThickWitness shows must have its element
    as the least; and a failing large L must meet A and be covered on side
    by at most kappa-1 elements, the cover _min_cover finds for L on
    searched_side, on counter. A verdict with no witness (not large, the
    empty set small) has nothing to check. Raises RuntimeError when a
    check fails."""
    if w is None:
        return
    amask = A.mask
    if notion == "large":
        ok = w.size < kappa and _covers(G, w, A, side)
    elif notion == "small":
        size, cover = _min_cover(G, w.mask, searched_side, counter)
        ok = w.mask & amask and size < kappa and _covers(G, Subset.from_indices(G.order, cover), w, side)
    else:
        cand = amask if variant == "witness-in-A" else G.full_mask
        if isinstance(w, ThickWitness):
            ok = all(_least_translating(G, F.mask, cand, amask, side) == x for F, x in w.shown)
        else:
            ok = w.size < kappa and _least_translating(G, w.mask, cand, amask, side) is None
    if not ok:
        raise RuntimeError(f"{notion} witness failed re-verification on the {side} side")


def mirrored(G: GroupTable, A: Subset, v: SizeVerdict, side: str) -> SizeVerdict:
    """v, a left (right) verdict on A in an abelian G, as the verdict on
    side, right (left): the same verdict, witness and nodes, once
    _rechecked has re-checked the witness on side. The caller checks that
    G is abelian."""
    counter = NodeCounter(DEFAULT_NODE_BUDGET)
    _rechecked(G, A, v.notion, side, v.kappa, v.variant, v.witness, v.side, counter)
    return v.replace(side=side)


# -- public classifiers ----------------------------------------------------------


def _classified(
    notion: str, G: GroupTable, A: Subset, kappa: int, side: str, variant: str | None,
    node_budget: int, decide,
) -> SizeVerdict:
    """The frame of is_large, is_thick and is_small: check the arguments,
    the variant too when the notion is thick, open the claim's one
    NodeCounter, and on it run decide(counter), which returns (verdict,
    witness), and then _rechecked on side. A budget that runs out in either
    makes the verdict inconclusive."""
    check_subset(G, A)
    check_kappa(G, kappa)
    check_side(side)
    if notion == "thick":
        check_variant(variant)
    counter = NodeCounter(node_budget)
    try:
        verdict, witness = decide(counter)
        _rechecked(G, A, notion, side, kappa, variant, witness, side, counter)
    except BudgetExceeded:
        verdict = witness = None
    return SizeVerdict(notion, side, kappa, verdict, variant, witness, counter.spent)


def is_large(
    G: GroupTable, A: Subset, kappa: int, side: str = "left", *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SizeVerdict:
    """Exact decision of left/right/two-sided kappa-largeness with minimal
    witness: cover_within decides at kappa-1, and only a large A has its
    minimal cover searched."""

    def decide(counter):
        if not cover_within(G, A.mask, side, kappa - 1, counter):
            return False, None
        return True, Subset.from_indices(G.order, _min_cover(G, A.mask, side, counter)[1])

    return _classified("large", G, A, kappa, side, None, node_budget, decide)


def is_thick(
    G: GroupTable,
    A: Subset,
    kappa: int,
    side: str = "left",
    variant: str = "witness-in-G",
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SizeVerdict:
    """Exact decision of kappa-thickness.

    witness-in-A demands the translating element a in A; witness-in-G lets
    it range over G. For witness-in-G the verdict is additionally computed
    through the complement's largeness and the two answers are required to
    agree.
    """

    def decide(counter):
        lmax, fail = _thick_profile(G, A.mask, side, variant, counter)
        thick = kappa - 1 <= lmax
        if variant == "witness-in-G":
            comp_large = cover_within(G, A.mask ^ G.full_mask, side, kappa - 1, counter)
            if thick == comp_large:  # pragma: no cover - internal duality check
                raise RuntimeError("thickness/largeness duality cross-check failed")
        if thick:
            return True, _thick_witness_map(G, A.mask, kappa - 1, side, variant, counter)
        return False, Subset.from_indices(G.order, fail)

    return _classified("thick", G, A, kappa, side, variant, node_budget, decide)


def _thick_witness_map(
    G: GroupTable, amask: int, fsize: int, side: str, variant: str, counter: NodeCounter
) -> ThickWitness:
    """Check every maximal F (|F| = fsize) for a translating element, and
    show the first SHOWN_TRANSLATES F in lex order with their least one.

    An F reads the _thick_walk table at its entries: (f,) for each f in F
    one-sided, and two-sided also (f1, f2) for each f1 < f2 in F, where (f,
    f) is the diagonal cols[f] and (f1, f2) is pairs[f1][f2]. When there
    are more maximal F than entries, the count may decide: if each entry
    excludes at most m candidates (x outside it) and an F's entries times m
    is below |candidates|, no F of fsize elements excludes them all. The
    route is chosen from the table's popcounts at no node cost; each
    entry's count is then read once more from the multiplication table, one
    node per entry, and must equal the table's. Otherwise a walk of the
    table at that one size must find no F that fails; it returns only F.
    Either route only checks. The shown entries are then built one way:
    the first SHOWN_TRANSLATES combinations in lex order, each F's table
    entries intersected with the candidates, the lowest bit left its
    element, at no node cost; _rechecked checks each against the raw
    definition."""
    n = G.order
    cand = amask if variant == "witness-in-A" else G.full_mask
    cols, pairs = _thick_walk(G, amask, side)
    # an entry is named by per_f elements; the table holds width entries,
    # and one F reads `reads` of them
    if pairs is None:
        per_f, width, reads = 1, n, fsize
    else:
        per_f, width, reads = 2, n * (n + 1) // 2, fsize * (fsize + 1) // 2

    def entries_of(F):
        return itertools.combinations_with_replacement(F, per_f)

    def entry(e):
        return cols[e[0]] if e[0] == e[-1] else pairs[e[0]][e[1]]

    excluded = {}
    if math.comb(n, fsize) > width:
        excluded = {e: (cand & ~entry(e)).bit_count() for e in entries_of(range(n))}
    if excluded and reads * max(excluded.values()) < cand.bit_count():
        for e, count in excluded.items():
            counter.spend()
            if _excluded(G, e, cand, amask, side) != count:
                raise RuntimeError("thick witness map failed re-verification")
    elif _sweep_translates((), fsize, cand, cols, pairs, counter) is not None:  # pragma: no cover
        raise RuntimeError("thick witness map failed re-verification")
    combos = itertools.islice(itertools.combinations(range(n), fsize), SHOWN_TRANSLATES)
    masks = ((c, functools.reduce(int.__and__, map(entry, entries_of(c)), cand)) for c in combos)
    shown = tuple((Subset(n, mask_of(c)), (m & -m).bit_length() - 1) for c, m in masks)
    return ThickWitness(shown, math.comb(n, fsize))


def is_small(
    G: GroupTable, A: Subset, kappa: int, side: str = "left", *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SizeVerdict:
    """A is kappa-small when removing it keeps every kappa-large set large;
    two-sided means left and right small.

    Lemma: in a finite group a nonempty A is never left (or right) small.
    Let m be the least size of a large set L. Every translate gL is large,
    since F(gL) = (Fg)L (mirrored on the right), and some gL meets A. Then
    |gL minus A| < m, so gL minus A is not large.

    So the empty set is small without search (L minus it is L), and for
    nonempty A the scan over L in (size, lex) order, from the least size
    with |L| * (kappa-1) >= |G|, stops at the first large L that meets A:
    it has size m and is the (size, lex)-minimal failing L. A two-sided
    claim is its left claim, relabelled: the left scan fails for every
    nonempty A. Each L, and L minus A, is tested by the decision
    cover_within at kappa-1; only the failing L's minimal cover is
    searched, by _rechecked, which checks it against the multiplication
    table.
    """
    if side == "two-sided":
        return is_small(G, A, kappa, "left", node_budget=node_budget).replace(side=side)

    def decide(counter):
        if not A.mask:
            return True, None
        n, limit = G.order, kappa - 1
        for size in range(-(-n // limit), n + 1):
            for combo in itertools.combinations(range(n), size):
                counter.spend()
                lmask = mask_of(combo)
                if lmask & A.mask and cover_within(G, lmask, side, limit, counter):
                    if cover_within(G, lmask & ~A.mask, side, limit, counter):  # pragma: no cover
                        raise RuntimeError("small counterexample is still large without A")
                    return False, Subset(n, lmask)
        raise RuntimeError("no large set meets A, yet G itself is large")  # pragma: no cover

    return _classified("small", G, A, kappa, side, None, node_budget, decide)


# -- the thick-to-large witness construction ------------------------------------


class CoverDecomposition(Record):
    """Disjoint cover of G by cells, a tuple of Subsets of size <= kappa-1
    (a finite stand-in for writing G as a small-piece union)."""

    __slots__ = ("cells",)

    @classmethod
    def blocks(cls, G: GroupTable, block_size: int) -> "CoverDecomposition":
        """Consecutive index blocks: {0..b-1}, {b..2b-1}, ..."""
        if block_size < 1:
            raise ValueError("block size must be >= 1")
        n = G.order
        cells = [
            Subset.from_indices(n, range(lo, min(lo + block_size, n)))
            for lo in range(0, n, block_size)
        ]
        return cls(tuple(cells))

    def validate(self, G: GroupTable, kappa: int) -> None:
        check_partition(G, self.cells, "cover")
        for cell in self.cells:
            if cell.size > kappa - 1:
                raise ValueError(f"cover cell {cell} larger than kappa-1 = {kappa - 1}")


class CoverCellError(ValueError):
    """A cover cell admits no translating element into A."""

    def __init__(self, cell_index: int, cell: Subset):
        super().__init__(f"cover cell {cell_index} = {cell} admits no translate into A")
        self.cell_index = cell_index
        self.cell = cell


def thick_to_large_witness(
    G: GroupTable, A: Subset, kappa: int, cover: CoverDecomposition
) -> Subset:
    """Constructive route from left thickness to right largeness.

    For each cover cell H pick the least g with H*g <= A; then
    F = {g^-1 : g picked} satisfies A*F = G with |F| <= number of cells:
    an h in H lies in A*g^-1. _covers re-checks A*F = G on the right
    before F is returned.
    """
    check_subset(G, A)
    check_kappa(G, kappa)
    cover.validate(G, kappa)
    n = G.order
    picks = []
    for i, cell in enumerate(cover.cells):
        g = _least_translating(G, cell.mask, G.full_mask, A.mask, "left")
        if g is None:
            raise CoverCellError(i, cell)
        picks.append(g)
    F = Subset.from_indices(n, (G.inv[g] for g in picks))
    if not _covers(G, F, A, "right"):  # pragma: no cover
        raise RuntimeError("thick-to-large witness failed re-verification")
    return F


# -- predicate-level verification on balls ---------------------------------------


def covered(H: "list[Word] | tuple[Word, ...]", A: WordSetPredicate, w: Word) -> bool:
    """Whether w lies in H*A, i.e. h^-1 w lies in A for some h in H; the raw
    re-check of a witness that ball_uncovered_witness returns."""
    return any(A(concat(inverse(h), w)) for h in H)


def ball_uncovered_witness(
    ball: Ball, H: "list[Word] | tuple[Word, ...]", A: WordSetPredicate
) -> Word | None:
    """First ball word g (in index order) outside H*A, i.e. with h^-1 g
    outside A for every h in H; products are exact, never truncated."""
    inv_h = [inverse(h) for h in H]
    for g in ball.words:
        if all(not A(concat(hi, g)) for hi in inv_h):
            return g
    return None
