import pytest
from hypothesis import given
from hypothesis import strategies as st

from kappasets.classify import CoverDecomposition
from kappasets.constructions import (
    Partition,
    PartitionError,
    comment2_bset,
    meet_partition,
    rank1_cell_of_int,
    rank1_partition,
    rank2_partition,
    s_set,
    split3_partition,
    thm3_partition,
)
from kappasets.groups import Subset, build_group
from kappasets.words import (
    WordSetPredicate,
    enumerate_ball,
    inverse,
    reduce_word,
)

words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10).map(reduce_word)


class TestSSet:
    def test_membership(self):
        S = s_set(2, 0)
        assert S((1, 2, -1))
        assert not S((2,))
        assert not S(())
        assert S((-1,))

    def test_requires_rank_two(self):
        with pytest.raises(ValueError):
            s_set(1, 0)
        with pytest.raises(ValueError):
            s_set(3, 3)

    @given(words)
    def test_symmetric_under_inversion(self, w):
        S = s_set(2, 0)
        assert S(w) == S(inverse(w))


class TestThm3:
    def test_cell_membership(self):
        part = thm3_partition(4, [0, 1], check_radius=3)
        b1, b2 = part.cells
        assert b1((3, 1))  # r then p: last letter p
        assert b2((1, 3))  # ends in r
        assert b2(())

    def test_degenerate_splits_rejected(self):
        with pytest.raises(ValueError):
            thm3_partition(4, [], check_radius=3)
        with pytest.raises(ValueError):
            thm3_partition(4, [0, 1, 2, 3], check_radius=3)


class TestSplit3:
    def test_cell_membership(self):
        part = split3_partition(3, [0], [1], [2], check_radius=3)
        cells = part.cells
        yz = (2, 3)
        xzx = (1, 3, 1)
        xy = (1, 2)
        assert [c(yz) for c in cells] == [True, False, False]
        assert [c(xzx) for c in cells] == [False, True, False]
        # mixed endpoints touch both avoided classes: last cell
        assert [c(xy) for c in cells] == [False, False, True]
        assert [c(()) for c in cells] == [False, False, True]

    def test_rejects_bad_splits(self):
        with pytest.raises(ValueError):
            split3_partition(3, [0], [1], [], check_radius=3)
        with pytest.raises(ValueError):
            split3_partition(3, [0], [0, 1], [2], check_radius=3)

    def test_same_formula_for_bigger_alphabets(self):
        part = split3_partition(6, [0, 1], [2, 3], [4, 5], check_radius=3)
        part.verify_on_ball(enumerate_ball(6, 3))


class TestRank2:
    def test_cell_membership(self):
        b1, b2, b3 = rank2_partition(check_radius=4).cells
        ab_n = reduce_word([1, 2] * 3)
        assert b1(ab_n)
        assert b2((2, 2, 2))
        assert b3((1, 1, 2, 2))  # a^2 ... b^2 mixes the marked squares
        for short in ((), (1,), (-2,)):
            assert b3(short)


class TestRank1:
    def test_blocks_alternate_and_mirror(self):
        assert rank1_cell_of_int(0) == 1
        assert [rank1_cell_of_int(v) for v in [1, 2, 3, 4, 7, 8, 15, 16]] == [
            0, 1, 1, 0, 0, 1, 1, 0,
        ]
        for v in range(1, 2000):
            assert rank1_cell_of_int(v) == rank1_cell_of_int(-v)

    def test_partition_on_words(self):
        part = rank1_partition(check_radius=16)
        b1, b2 = part.cells
        assert b2(())  # 0 sits in the second cell
        assert b1((1,)) and b1((-1,))  # +-1, block k=0
        assert b2((1, 1))  # 2 lies in [2,4)

    def test_interior_windows_are_monochromatic(self):
        for h in (2, 5, 8):
            for k in (5, 9, 12):
                lo, hi = 2**k + h + 1, 2 ** (k + 1) - h
                for n in range(lo, hi, max(1, (hi - lo) // 7)):
                    cells = {rank1_cell_of_int(m) for m in range(n - h, n + h + 1)}
                    assert cells == {rank1_cell_of_int(n)}


class TestPartitionVerification:
    def test_overlapping_cells_rejected(self):
        always = WordSetPredicate("everything", lambda w: True)
        bad = Partition((always, always), "overlap", alphabet_size=2)
        with pytest.raises(PartitionError):
            bad.verify_on_ball(enumerate_ball(2, 1))

    def test_group_partition_verification(self):
        G = build_group("cyclic:4")
        good = Partition(
            (Subset.from_indices(4, [0, 1]), Subset.from_indices(4, [2, 3])), "halves", group=G
        )
        good.verify_on_group()
        bad = Partition((Subset.from_indices(4, [0, 1]),), "missing", group=G)
        with pytest.raises(PartitionError):
            bad.verify_on_group()

    def test_cells_over_another_carrier_rejected(self):
        # the masks alone cover cyclic:6 disjointly, but one cell lives in order 4
        G = build_group("cyclic:6")
        cells = (Subset(4, 0b1111), Subset(6, 0b110000))
        with pytest.raises(PartitionError, match="lies over order 4"):
            Partition(cells, "mixed", group=G).verify_on_group()
        with pytest.raises(PartitionError, match="lies over order 4"):
            CoverDecomposition(cells).validate(G, 5)


class TestMeetPartition:
    def test_parity_cells_are_fixed(self):
        G = build_group("cyclic:6")
        evens = Subset.from_indices(6, [0, 2, 4])
        P = Partition((evens, evens.complement()), "parity", group=G)
        M = meet_partition(G, P)
        assert M.cells == (evens, evens.complement())

    def test_whole_group(self):
        G = build_group("cyclic:6")
        M = meet_partition(G, Partition((Subset.full(6),), "trivial", group=G))
        assert M.cells == (Subset.full(6),)

    def test_nonabelian_refinement(self):
        G = build_group("symmetric:3")
        A = Subset.from_indices(6, [0, 1])  # identity plus a transposition
        M = meet_partition(G, Partition((A, A.complement()), "2-cell", group=G))
        assert 2 <= M.num_cells <= 4
        M.verify_on_group()

    def test_partition_over_another_group_of_the_same_order_rejected(self):
        # the halves of cyclic:6 are no partition of S3, whose inverses would
        # return them unchanged; over cyclic:6 the meet splits them
        C6 = build_group("cyclic:6")
        low = Subset.from_indices(6, [0, 1, 2])
        P = Partition((low, low.complement()), "halves", group=C6)
        with pytest.raises(ValueError, match="does not live over the given group"):
            meet_partition(build_group("symmetric:3"), P)
        got = [c.indices() for c in meet_partition(C6, P).cells]
        assert got == [(0,), (1, 2), (3,), (4, 5)]


class TestComment2BSet:
    def test_membership(self):
        B = comment2_bset((2, 2), (0, 0))
        assert B(((2, 1), ()))  # top component 0 ends in its mark
        assert not B(((2, 1), (2,)))  # top component 1 ends off-mark
        assert B(((2, 1), (-1,)))
        assert not B(((), ()))

    def test_default_three_summands(self):
        B = comment2_bset()
        assert B(((1,), (), ()))
        assert not B(((1,), (), (2,)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            comment2_bset((2,), (0, 0))
        with pytest.raises(ValueError):
            comment2_bset((2, 2), (0, 2))
        with pytest.raises(ValueError):
            comment2_bset((2, 2), (0, 0))((((1,),)))  # wrong arity
