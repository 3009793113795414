import functools
import gc
import weakref

import pytest

from kappasets import resolvability
from kappasets.classify import is_large, is_thick
from kappasets.groups import Subset, build_group
from kappasets.resolvability import (
    PROBE_TARGETS,
    RES_MODES,
    SearchOutcome,
    partition_search,
    res_search,
)
from kappasets.suites import GRID_SPECS, ORACLE_SPECS, _all_set_partitions

Z4 = build_group("cyclic:4")
Z6 = build_group("cyclic:6")


def all_set_partitions(n):
    """Independent oracle enumeration (restricted growth strings)."""
    if n == 0:
        yield []
        return
    for smaller in all_set_partitions(n - 1):
        i = n - 1
        for j in range(len(smaller)):
            yield smaller[:j] + [smaller[j] | (1 << i)] + smaller[j + 1 :]
        yield smaller + [1 << i]


def oracle_res(G, kappa, mode):
    best = 0
    for parts in all_set_partitions(G.order):
        cells = [Subset(G.order, m) for m in parts]
        ok = all(is_large(G, c, kappa, "left").verdict for c in cells)
        if ok and mode == "left+right":
            ok = all(is_large(G, c, kappa, "right").verdict for c in cells)
        if ok:
            best = max(best, len(parts))
    return best


class TestResSearch:
    def test_pinned_values(self):
        assert res_search(Z4, 3, "left").cells == 2
        assert res_search(Z4, 2, "left").cells == 1
        assert res_search(Z6, 4, "left").cells == 3

    def test_reported_partitions_verify(self):
        out = res_search(Z6, 4, "left")
        assert out.optimal
        out.best.verify_on_group()
        for cell in out.best.cells:
            assert is_large(Z6, cell, 4, "left").verdict

    def test_kappa_2_forces_the_whole_group(self):
        out = res_search(Z4, 2, "left")
        assert out.cells == 1 and out.best.cells[0] == Subset.full(4)

    @pytest.mark.parametrize("spec", ["cyclic:5", "symmetric:3", "dihedral:2"])
    def test_matches_oracle(self, spec):
        G = build_group(spec)
        for kappa in range(2, G.order + 1):
            for mode in ("left", "left+right"):
                out = res_search(G, kappa, mode)
                assert out.optimal
                assert out.cells == oracle_res(G, kappa, mode), (spec, kappa, mode)

    def test_monotone_in_kappa(self):
        for spec in ("cyclic:6", "symmetric:3"):
            G = build_group(spec)
            values = [res_search(G, k, "left").cells for k in range(2, G.order + 1)]
            assert values == sorted(values)

    def test_both_sides_never_beats_left(self):
        for spec in ("cyclic:6", "symmetric:3", "dihedral:3"):
            G = build_group(spec)
            for kappa in range(2, G.order + 1):
                assert (
                    res_search(G, kappa, "left+right").cells
                    <= res_search(G, kappa, "left").cells
                )

    def test_abelian_modes_agree(self):
        for spec in ("cyclic:4", "cyclic:5", "cyclic:6"):
            G = build_group(spec)
            for kappa in range(2, G.order + 1):
                assert (
                    res_search(G, kappa, "left").cells
                    == res_search(G, kappa, "left+right").cells
                )

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_witness_is_the_first_valid_partition(self, spec):
        # the oracle scans every set partition in canonical order and keeps
        # the first one with out.cells cells, all large on the mode's sides
        G = build_group(spec)
        n = G.order
        partitions = list(_all_set_partitions(n))
        for kappa in range(2, n + 1):
            for mode, sides in (("left", ("left",)), ("left+right", ("left", "right"))):
                large = functools.cache(
                    lambda m: all(is_large(G, Subset(n, m), kappa, s).verdict for s in sides)
                )
                out = res_search(G, kappa, mode)
                oracle = next(p for p in partitions if len(p) == out.cells and all(map(large, p)))
                assert [c.mask for c in out.best.cells] == oracle, (spec, kappa, mode)

    @pytest.mark.parametrize(
        "spec,kappa,budget,cells",
        [("dihedral:9", 10, 10**4, 9), ("symmetric:4", 7, 10**5, 6), ("symmetric:4", 8, 10**5, 6)],
    )
    def test_closed_cells_decide_within_budget(self, spec, kappa, budget, cells):
        # a leaf-only cell test runs each of these out of its budget; checked
        # as they close, the cells decide them in 970, 38,586 and 28,777 nodes
        out = res_search(build_group(spec), kappa, "left", node_budget=budget)
        assert out.optimal and out.cells == cells

    def test_budget_makes_outcome_non_optimal(self):
        out = res_search(build_group("dihedral:4"), 5, "left", node_budget=3)
        assert isinstance(out, SearchOutcome)
        assert not out.optimal

    def test_exhausted_budget_reports_the_whole_group(self):
        # the budget dies at the top count; the lower counts are not tried
        G = build_group("product:cyclic:4+cyclic:4")
        out = res_search(G, 7, "left", node_budget=10**4)
        assert (out.cells, out.optimal, out.nodes) == (1, False, 10**4 + 1)
        assert out.best.cells == (Subset.full(16),)

    def test_one_cell_is_answered_without_nodes(self):
        # kappa = 2 bounds the count at 1, so nothing is searched
        out = res_search(Z4, 2, "left", node_budget=0)
        assert (out.cells, out.optimal, out.nodes) == (1, True, 0)
        assert out.best.cells == (Subset.full(4),)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            res_search(Z4, 3, "right")


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_budgeted_outcomes_are_verified_lower_bounds(spec):
    # at any budget, best is a verified partition into large cells; an
    # optimal outcome is the unbudgeted one
    G = build_group(spec)
    for kappa in range(2, G.order + 1):
        for mode, sides in (("left", ("left",)), ("left+right", ("left", "right"))):
            full = res_search(G, kappa, mode)
            for budget in (0, 1, 10, 100, 1000):
                out = res_search(G, kappa, mode, node_budget=budget)
                out.best.verify_on_group()
                assert out.cells == out.best.num_cells >= 1
                assert out.nodes <= budget + 1
                for cell in out.best.cells:
                    assert all(is_large(G, cell, kappa, s).verdict for s in sides)
                if out.optimal:
                    assert (out.cells, _masks(out.best)) == (full.cells, _masks(full.best))


def test_searches_free_the_group_without_a_collection():
    # a group's caches live as long as the group, so searches must leave
    # no reference cycle that keeps it alive until the next collection
    gc.disable()
    try:
        G = build_group("dihedral:3")
        ref = weakref.ref(G)
        res_search(G, 3, "left+right")
        partition_search(G, 3, 2, "all-thick")
        partition_search(G, 3, 2, "all-non-large")
        del G
        assert ref() is None
    finally:
        gc.enable()


class TestPartitionSearch:
    def test_two_thick_probe_is_canonical(self):
        got = partition_search(Z6, 3, 2, "all-thick")
        assert got.exhaustive
        cells = got.found.cells
        assert tuple(c.indices() for c in cells) == ((0, 1, 3), (2, 4, 5))
        for cell in cells:
            assert is_thick(Z6, cell, 3, "left", "witness-in-G").verdict
            assert not is_large(Z6, cell.complement(), 3, "left").verdict

    def test_kappa_2_any_split_works(self):
        got = partition_search(Z6, 2, 2, "all-thick")
        assert got.found is not None
        assert tuple(c.indices() for c in got.found.cells) == ((0, 1, 2, 3, 4), (5,))

    def test_non_large_probe(self):
        got = partition_search(Z4, 2, 2, "all-non-large")
        assert got.found is not None
        for cell in got.found.cells:
            assert not is_large(Z4, cell, 2, "left").verdict

    def test_exhaustive_refusal(self):
        # at kappa=4 every 1-, 2- or 3-element subset of C4 comes up large
        # or its complement does; no 2-cell all-non-large partition exists
        got = partition_search(Z4, 4, 2, "all-non-large")
        assert got.found is None and got.exhaustive

    def test_budget_inconclusive(self):
        got = partition_search(build_group("dihedral:4"), 3, 2, "all-thick", node_budget=2)
        assert got.found is None and not got.exhaustive

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            partition_search(Z4, 3, 1, "all-thick")
        with pytest.raises(ValueError):
            partition_search(Z4, 3, 2, "all-sparse")

    @pytest.mark.parametrize("target", ["all-thick", "all-non-large"])
    def test_variant_validation(self, target):
        # an unknown variant used to pass as witness-in-G (all-thick) or be
        # ignored (all-non-large)
        with pytest.raises(ValueError, match="variant"):
            partition_search(Z6, 4, 3, target, "bogus")


class TestWitnessInAProbe:
    def test_probe_with_letter_exact_variant(self):
        got = partition_search(Z6, 2, 2, "all-thick", "witness-in-A")
        assert got.found is not None
        for cell in got.found.cells:
            assert is_thick(Z6, cell, 2, "left", "witness-in-A").verdict


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_partition_search_matches_first_valid_partition(spec):
    # the oracle scans every set partition in canonical order and keeps the
    # first one with n_cells cells that all pass the public classifier
    G = build_group(spec)
    n = G.order
    partitions = list(_all_set_partitions(n))
    for kappa in range(2, n + 1):
        for variant in ("witness-in-G", "witness-in-A"):
            classifiers = {
                "all-thick": lambda m: is_thick(G, Subset(n, m), kappa, "left", variant).verdict,
                "all-non-large": lambda m: not is_large(G, Subset(n, m), kappa, "left").verdict,
            }
            for target, passes in classifiers.items():
                ok = functools.cache(passes)
                for n_cells in range(2, n + 1):
                    oracle = next(
                        (p for p in partitions if len(p) == n_cells and all(map(ok, p))),
                        None,
                    )
                    got = partition_search(G, kappa, n_cells, target, variant)
                    assert got.exhaustive, (spec, kappa, n_cells, target, variant)
                    found = None if got.found is None else [c.mask for c in got.found.cells]
                    assert found == oracle, (spec, kappa, n_cells, target, variant)


class TestThickProbePruning:
    def test_order_12_three_cells_refuted_within_budget(self):
        # the complement-largeness prune refutes this probe in 2,922 nodes;
        # without it the search takes 39,647
        got = partition_search(
            build_group("product:symmetric:3+cyclic:2"), 3, 3, "all-thick", node_budget=10**4
        )
        assert got.exhaustive and got.found is None

    def test_cyclic_10_probe_within_budget(self):
        # 847 nodes with the prune; 1,341 without it
        got = partition_search(build_group("cyclic:10"), 4, 2, "all-thick", node_budget=1000)
        assert got.exhaustive


def _plain_exact_cells(G, t, min_cell, counter, leaf_ok, partial_ok=None):
    """The enumeration with every cell tested at the leaf: the reference the
    closed-cell checks of resolvability._search_exact_cells must agree with."""
    n = G.order
    cells: list[int] = []
    sizes: list[int] = []

    def rec(i: int, deficit: int):
        if i == n:
            if len(cells) == t and all(leaf_ok(m) for m in cells):
                return list(cells)
            return None
        if deficit > n - i:
            return None
        counter.spend()
        bit = 1 << i
        placed = (bit << 1) - 1
        opened = len(cells)
        for j in range(opened):
            cells[j] |= bit
            sizes[j] += 1
            if partial_ok is None or partial_ok(cells, j, placed):
                got = rec(i + 1, deficit - (sizes[j] <= min_cell))
                if got is not None:
                    return got
            cells[j] ^= bit
            sizes[j] -= 1
        if opened < t:
            cells.append(bit)
            sizes.append(1)
            if partial_ok is None or partial_ok(cells, opened, placed):
                got = rec(i + 1, deficit - 1)
                if got is not None:
                    return got
            cells.pop()
            sizes.pop()
        return None

    return rec(0, t * min_cell)


def _masks(part):
    return None if part is None else [c.mask for c in part.cells]


@pytest.mark.parametrize("spec", sorted(set(GRID_SPECS) | set(ORACLE_SPECS)))
def test_closed_cells_match_the_plain_enumeration(spec, monkeypatch):
    # every search, each on a fresh group, gives the partition and the flags
    # of the enumeration that tests cells only at the leaf
    def both(search):
        with monkeypatch.context() as m:
            m.setattr(resolvability, "_search_exact_cells", _plain_exact_cells)
            plain = search(build_group(spec))
        return plain, search(build_group(spec))

    n = build_group(spec).order
    for kappa in range(2, n + 1):
        for mode in RES_MODES:
            plain, got = both(lambda G: res_search(G, kappa, mode))
            assert (got.cells, got.optimal, _masks(got.best)) == (
                plain.cells, plain.optimal, _masks(plain.best)
            ), (spec, kappa, mode)
        for target in PROBE_TARGETS:
            for n_cells in range(2, min(3, n) + 1):
                plain, got = both(lambda G: partition_search(G, kappa, n_cells, target))
                assert (got.exhaustive, _masks(got.found)) == (
                    plain.exhaustive, _masks(plain.found)
                ), (spec, kappa, target, n_cells)
