"""Exact partition searches over finite groups.

res_search maximizes the number of cells in a partition whose every cell
is left (or left-and-right) kappa-large; partition_search probes for
partitions into all-thick or all-non-large cells. Both ask one probe for a
partition into t cells meeting a target; it enumerates set partitions
canonically (elements assigned in index order, first element pinned to
cell 0), so outcomes are reproducible. The one-cell partition {G} is never
searched: G is large via F = {identity}, so res_search always reports at
least one cell.

Partial partitions are pruned only where no valid leaf lies below, so the
first partition found and the exhaustive flag are those of the plain
enumeration. Every search checks a cell as soon as it is closed, not at the
leaf: a cell needs min_cell elements to pass, and once the unplaced
elements are exactly those still owed to cells below min_cell, a cell at
min_cell or above can take no further element. The all-non-large probe
drops a cell once it is large (largeness is closed under supersets). The
all-thick probe drops a partial partition once some final cell can no
longer be thick: a final cell misses everything placed in the other cells,
and A is left witness-in-G thick iff G minus A is not left large, so a
left-large set of elements placed outside a cell (or, for a cell not yet
opened, all placed elements) rules it out; witness-in-A thickness implies
witness-in-G thickness, so the same prune holds for that variant. A thick
cell also holds a translate F*x with |F| = kappa-1, which sets the
cell-size floor; a large cell holds at least |G|/(kappa-1) elements.

A largeness test of a cell or of the placed elements reads only whether
the set is kappa-large, so it is the decision classify.cover_within at
kappa-1, never the exact cover number: the counting bound and the greedy
cover settle most cells, and the rest take one exact search at kappa-1.
A found partition is re-checked through the public classifiers.
"""

from __future__ import annotations

from .classify import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    NodeCounter,
    charged,
    check_variant,
    cover_within,
    is_large,
    is_thick,
    thick_lmax,
)
from .constructions import Partition
from .groups import GroupTable, Record, Subset, check_kappa

RES_MODES = ("left", "left+right")
PROBE_TARGETS = ("all-thick", "all-non-large")

#: Context note attached to all-thick probe reports.
THICK_PROBE_NOTE = (
    "finite carriers track the regular-cardinal regime: a partition into two "
    "left-thick cells can exist here, whereas over a group of singular "
    "cardinality every left-thick subset is right-large, which rules out "
    "partitioning into two thick cells"
)


class SearchOutcome(Record):
    """Result of a resolvability search, with fields cells, optimal, nodes
    and best: best is a verified partition into cells >= 1 cells. optimal
    means every larger count was refuted, exhaustively or by the cell-size
    bound; when the node budget ran out first, best is the one-cell
    partition {G}, a proved lower bound, and optimal is False."""

    __slots__ = ("cells", "optimal", "nodes", "best")


class ProbeOutcome(Record):
    """Result of a fixed-cell-count partition probe, with fields found (a
    Partition or None), exhaustive and nodes; exhaustive=False means the
    node budget ran out before the search space was exhausted."""

    __slots__ = ("found", "exhaustive", "nodes")


def _cell_large(G: GroupTable, mask: int, limit: int, mode: str, counter: NodeCounter) -> bool:
    # branches, not all() over the sides: this runs per leaf and per prune,
    # where a generator per call costs the search workload 5-8%
    return cover_within(G, mask, "left", limit, counter) and (
        mode == "left" or cover_within(G, mask, "right", limit, counter)
    )


def _search_exact_cells(
    G: GroupTable,
    t: int,
    min_cell: int,
    counter: NodeCounter,
    leaf_ok,
    partial_ok=None,
) -> list[int] | None:
    """First (in canonical order) partition into exactly t cells passing
    leaf_ok on every cell; cells are bitmasks. partial_ok(cells, j, placed)
    may prune as soon as cell j grows; placed is the mask of elements
    assigned so far. leaf_ok must fail on every cell of fewer than min_cell
    (>= 1) elements.

    Element i takes one step per cell it may join: each open cell in order,
    then, while fewer than t are open, a new cell that starts empty. The
    step grows the cell, asks partial_ok, checks any cell it closes,
    recurses and undoes. The masks are all it keeps: a cell's size is read
    off its mask's bit count where a step needs it.

    Each cell is checked once, as soon as it is closed. The slack, the
    unplaced elements minus those still owed to cells below min_cell, never
    grows along a branch and is 0 at every leaf. Once it is 0, a cell of
    min_cell or more elements can take no further element, so leaf_ok runs
    on every such cell at the step the slack reaches 0, and on each later
    cell at the step it reaches min_cell; the leaf itself needs no test.
    """
    n = G.order
    if t * min_cell > n:
        return None  # no slack even before the first element
    cells: list[int] = []

    def rec(i: int, deficit: int) -> list[int] | None:
        # deficit: elements still owed to reach t cells of min_cell each
        if i == n:
            return list(cells)  # zero slack: t cells, each checked as it closed
        counter.spend()
        slack = n - i - deficit
        bit = 1 << i
        placed = (bit << 1) - 1
        opened = len(cells)
        for j in range(opened + (opened < t)):
            if j == opened:  # open a new cell: an empty one, grown like the rest
                cells.append(0)
            short = cells[j].bit_count() < min_cell
            if not (short or slack):
                continue  # closed: an element here would leave a cell short
            cells[j] |= bit
            ok = partial_ok is None or partial_ok(cells, j, placed)
            if ok and not slack and cells[j].bit_count() == min_cell:
                ok = leaf_ok(cells[j])  # the cell just closed
            elif ok and slack == 1 and not short:
                # the slack runs out here and closes every cell at min_cell or more
                ok = all(leaf_ok(m) for m in cells if m.bit_count() >= min_cell)
            if ok:
                got = rec(i + 1, deficit - short)
                if got is not None:
                    return got
            cells[j] ^= bit
        del cells[opened:]  # the cell this step opened, if any
        return None

    try:
        return rec(0, t * min_cell)
    finally:
        # rec refers to itself through its closure; break that cycle so the
        # group and its caches are freed with the call, not at the next GC
        del rec


def _probe(
    G: GroupTable, kappa: int, t: int, target: str, counter: NodeCounter,
    variant: str = "witness-in-G",
) -> Partition | None:
    """First partition of G, in canonical order, into t cells that all meet
    target (one of RES_MODES or PROBE_TARGETS), re-verified through
    the public classifiers on counter's budget; None when no such partition
    exists. Raises BudgetExceeded when counter runs out. Only all-thick reads
    variant.

    t = 1 is answered, not searched: G is large via F = {identity} and holds
    every translate, so {G} meets every res target. Only res_search asks
    for it, and reports it after the budget is spent, so its re-check runs on
    a counter of its own that the claim does not count.
    """
    n = G.order
    limit = kappa - 1
    recheck = counter if t > 1 else NodeCounter(DEFAULT_NODE_BUDGET)
    partial_ok = None
    if target == "all-thick":

        def cell_ok(mask: int) -> bool:
            return limit <= thick_lmax(G, mask, "left", variant, counter)

        def partial_ok(cells: list[int], j: int, placed: int) -> bool:
            outside = [placed & ~m for k, m in enumerate(cells) if k != j]
            if len(cells) < t:
                outside.append(placed)  # a cell not yet opened
            return not any(_cell_large(G, m, limit, "left", counter) for m in outside)

        def verify(cell: Subset) -> bool:
            return charged(recheck, is_thick, G, cell, kappa, "left", variant).verdict

        min_cell = limit
    elif target == "all-non-large":

        def cell_ok(mask: int) -> bool:
            return not _cell_large(G, mask, limit, "left", counter)

        def partial_ok(cells: list[int], j: int, placed: int) -> bool:
            return cell_ok(cells[j])

        def verify(cell: Subset) -> bool:
            return not charged(recheck, is_large, G, cell, kappa, "left").verdict

        min_cell = 1
    else:  # a res mode: every cell left (or left and right) large

        def cell_ok(mask: int) -> bool:
            return _cell_large(G, mask, limit, target, counter)

        def verify(cell: Subset) -> bool:
            return all(
                charged(recheck, is_large, G, cell, kappa, side).verdict
                for side in target.split("+")
            )

        min_cell = -(-n // limit)  # ceil(n / (kappa-1))

    if t == 1:
        got = [G.full_mask]
    else:
        got = _search_exact_cells(G, t, min_cell, counter, cell_ok, partial_ok)
    if got is None:
        return None
    cells = tuple(Subset(n, m) for m in got)
    part = Partition(cells, f"{t}-cell {target} partition at kappa={kappa}", group=G)
    part.verify_on_group()
    if not all(map(verify, cells)):
        raise RuntimeError("probe cell failed re-verification")  # pragma: no cover
    return part


def res_search(
    G: GroupTable, kappa: int, mode: str = "left", *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Largest number of cells in a partition into left (or left-and-right)
    kappa-large subsets.

    A cell can only be large when |cell| * (kappa-1) >= |G|, which bounds
    the cell count; counts are then tried downward, so the first hit is the
    maximum and everything above it was refuted exhaustively. When the
    budget runs out first, the one-cell partition {G} is reported as a
    proved lower bound, not optimal.
    """
    check_kappa(G, kappa)
    if mode not in RES_MODES:
        raise ValueError(f"mode must be one of {RES_MODES}, got {mode!r}")
    n = G.order
    t_max = n // -(-n // (kappa - 1))
    counter = NodeCounter(node_budget)
    optimal = True
    for t in range(t_max, 1, -1):
        try:
            best = _probe(G, kappa, t, mode, counter)
        except BudgetExceeded:
            optimal = False
            break
        if best is not None:
            return SearchOutcome(t, True, counter.spent, best)
    best = _probe(G, kappa, 1, mode, counter)
    return SearchOutcome(1, optimal, counter.spent, best)


def partition_search(
    G: GroupTable,
    kappa: int,
    n_cells: int,
    target: str,
    variant: str = "witness-in-G",
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ProbeOutcome:
    """Search for a partition into n_cells cells, each left kappa-thick
    (given variant) or each not left kappa-large; canonical tie-break.

    Thickness here is the left notion: the probe tracks partitions whose
    cells all survive left-translate tests, the regime where small carriers
    behave like regular cardinalities. The module docstring gives the prunes.
    """
    check_kappa(G, kappa)
    if target not in PROBE_TARGETS:
        raise ValueError(f"target must be one of {PROBE_TARGETS}, got {target!r}")
    check_variant(variant)
    if not 2 <= n_cells <= G.order:
        raise ValueError("cell count must lie in [2, |G|]")
    counter = NodeCounter(node_budget)
    try:
        found = _probe(G, kappa, n_cells, target, counter, variant)
    except BudgetExceeded:
        return ProbeOutcome(None, False, counter.spent)
    return ProbeOutcome(found, True, counter.spent)
