"""Exact partition searches over finite groups.

res_search maximizes the number of cells in a partition whose every cell
is left (or left-and-right) kappa-large; partition_search probes for
partitions into all-thick or all-non-large cells. Both enumerate set
partitions canonically (elements assigned in index order, first element
pinned to cell 0), so outcomes are reproducible.

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
cell-size floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    NodeCounter,
    check_variant,
    is_large,
    is_thick,
    min_cover_size,
    thick_lmax,
)
from .constructions import Partition
from .groups import GroupTable, Subset, check_kappa

RES_MODES = ("left", "left+right")
PROBE_TARGETS = ("all-thick", "all-non-large")

#: Context note attached to all-thick probe reports.
THICK_PROBE_NOTE = (
    "finite carriers track the regular-cardinal regime: a partition into two "
    "left-thick cells can exist here, whereas over a group of singular "
    "cardinality every left-thick subset is right-large, which rules out "
    "partitioning into two thick cells"
)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a resolvability search; optimal means cells+1 was refuted
    exhaustively (or analytically via the cell-size bound)."""

    constraint: str
    cells: int
    optimal: bool
    nodes: int
    best: Partition | None


@dataclass(frozen=True)
class ProbeOutcome:
    """Result of a fixed-cell-count partition probe; exhaustive=False means
    the node budget ran out before the search space was exhausted."""

    constraint: str
    found: Partition | None
    exhaustive: bool
    nodes: int


def _cell_large(G: GroupTable, mask: int, limit: int, mode: str, counter: NodeCounter) -> bool:
    # branches, not all() over the sides: this runs per leaf and per prune,
    # where a generator per call costs the search workload 5-8%
    return min_cover_size(G, mask, "left", counter) <= limit and (
        mode == "left" or min_cover_size(G, mask, "right", counter) <= limit
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
    sizes: list[int] = []

    def rec(i: int, deficit: int) -> list[int] | None:
        # deficit: elements still owed to reach t cells of min_cell each
        if i == n:
            return list(cells)  # zero slack: t cells, each checked as it closed
        counter.spend()
        slack = n - i - deficit
        bit = 1 << i
        placed = (bit << 1) - 1
        opened = len(cells)
        for j in range(opened):
            short = sizes[j] < min_cell
            if not (short or slack):
                continue  # closed: an element here would leave a cell short
            cells[j] |= bit
            sizes[j] += 1
            ok = partial_ok is None or partial_ok(cells, j, placed)
            if ok and not slack and sizes[j] == min_cell:
                ok = leaf_ok(cells[j])  # the cell just closed
            elif ok and slack == 1 and not short:
                # the slack runs out here and closes every cell at min_cell or more
                ok = all(leaf_ok(m) for m, s in zip(cells, sizes) if s >= min_cell)
            if ok:
                got = rec(i + 1, deficit - short)
                if got is not None:
                    return got
            cells[j] ^= bit
            sizes[j] -= 1
        if opened < t:
            cells.append(bit)
            sizes.append(1)
            ok = partial_ok is None or partial_ok(cells, opened, placed)
            if ok and not slack and min_cell == 1:
                ok = leaf_ok(bit)  # the new cell is closed at once
            if ok:
                got = rec(i + 1, deficit - 1)
                if got is not None:
                    return got
            cells.pop()
            sizes.pop()
        return None

    try:
        return rec(0, t * min_cell)
    finally:
        # rec refers to itself through its closure; break that cycle so the
        # group and its caches are freed with the call, not at the next GC
        del rec


def res_search(
    G: GroupTable, kappa: int, mode: str = "left", *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Largest number of cells in a partition into left (or left-and-right)
    kappa-large subsets.

    A cell can only be large when |cell| * (kappa-1) >= |G|, which bounds
    the cell count; counts are then tried downward, so the first hit is the
    maximum and everything above it was refuted exhaustively. G itself is
    always large (F = {identity}), so the answer is at least 1.
    """
    check_kappa(G, kappa)
    if mode not in RES_MODES:
        raise ValueError(f"mode must be one of {RES_MODES}, got {mode!r}")
    n = G.order
    limit = kappa - 1
    min_cell = -(-n // limit)  # ceil(n / (kappa-1))
    t_max = n // min_cell
    counter = NodeCounter(node_budget)
    constraint = "all-left-large" if mode == "left" else "all-left-and-right-large"

    def leaf_ok(mask: int) -> bool:
        return _cell_large(G, mask, limit, mode, counter)

    optimal = True
    for t in range(t_max, 0, -1):
        try:
            got = _search_exact_cells(G, t, min_cell, counter, leaf_ok)
        except BudgetExceeded:
            optimal = False
            got = None
        if got is not None:
            cells = tuple(Subset(n, m) for m in got)
            best = Partition(
                cells, f"res-search kappa={kappa} mode={mode}", group=G
            )
            best.verify_on_group()
            sides = ("left", "right") if mode == "left+right" else ("left",)
            for cell in cells:  # re-verify through the public classifier
                if not all(is_large(G, cell, kappa, side).verdict for side in sides):
                    raise RuntimeError("resolvability cell failed re-verification")  # pragma: no cover
            return SearchOutcome(constraint, t, optimal, counter.spent, best)
    if not optimal:
        # the budget died before even the trivial partition could be checked
        return SearchOutcome(constraint, 0, False, counter.spent, None)
    # unreachable: t = 1 always succeeds (G is large via the identity)
    raise RuntimeError("resolvability search failed to find the trivial partition")


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
    behave like regular cardinalities.

    The all-thick search cuts a partial partition as soon as the elements
    placed outside some cell (all placed elements, for a cell not yet
    opened) form a left kappa-large set, and it needs every cell to hold at
    least kappa-1 elements. Both cuts are sound for either variant: a cell
    whose complement is left large is not witness-in-G thick (duality), and
    so not witness-in-A thick either (the variant chain).
    """
    check_kappa(G, kappa)
    if target not in PROBE_TARGETS:
        raise ValueError(f"target must be one of {PROBE_TARGETS}, got {target!r}")
    check_variant(variant)
    if not 2 <= n_cells <= G.order:
        raise ValueError("cell count must lie in [2, |G|]")
    n = G.order
    limit = kappa - 1
    counter = NodeCounter(node_budget)

    if target == "all-thick":

        def leaf_ok(mask: int) -> bool:
            return limit <= thick_lmax(G, mask, "left", variant, counter)

        def partial_ok(cells: list[int], j: int, placed: int) -> bool:
            # a final cell misses everything placed in the other cells, so
            # its complement contains that mask; once it is left-large the
            # cell cannot be thick (cell j's own mask is unchanged)
            outside = [placed & ~m for k, m in enumerate(cells) if k != j]
            if len(cells) < n_cells:
                outside.append(placed)  # a cell not yet opened
            return not any(_cell_large(G, m, limit, "left", counter) for m in outside)

        min_cell = limit  # a thick cell holds a translate F*x with |F| = kappa-1
    else:

        def leaf_ok(mask: int) -> bool:
            return not _cell_large(G, mask, limit, "left", counter)

        def partial_ok(cells: list[int], j: int, placed: int) -> bool:
            # largeness is monotone under growth: a large partial cell is dead
            return leaf_ok(cells[j])

        min_cell = 1

    try:
        got = _search_exact_cells(G, n_cells, min_cell, counter, leaf_ok, partial_ok)
        exhaustive = True
    except BudgetExceeded:
        got = None
        exhaustive = False
    if got is None:
        return ProbeOutcome(target, None, exhaustive, counter.spent)
    cells = tuple(Subset(n, m) for m in got)
    part = Partition(cells, f"partition-search kappa={kappa} target={target}", group=G)
    part.verify_on_group()
    for cell in cells:  # re-verify through the public classifiers
        if target == "all-thick":
            ok = is_thick(G, cell, kappa, "left", variant).verdict
        else:
            ok = not is_large(G, cell, kappa, "left").verdict
        if not ok:
            raise RuntimeError("probe cell failed re-verification")  # pragma: no cover
    return ProbeOutcome(target, part, exhaustive, counter.spent)
