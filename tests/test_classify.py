import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappasets.classify import (
    SIDES,
    CoverCellError,
    CoverDecomposition,
    ball_uncovered_witness,
    covered,
    is_large,
    is_small,
    is_thick,
    thick_to_large_witness,
)
from kappasets.constructions import rank2_partition, s_set, thm3_partition
from kappasets.groups import Subset, build_group, inverse_mask, product_set
from kappasets.words import WordSetPredicate, enumerate_ball, words_over

Z2 = build_group("cyclic:2")
Z4 = build_group("cyclic:4")
Z6 = build_group("cyclic:6")
S3 = build_group("symmetric:3")

SMALL_GROUPS = st.sampled_from([Z4, Z6, S3, build_group("dihedral:3")])


def sub(G, *idx):
    return Subset.from_indices(G.order, idx)


class TestIsLarge:
    def test_examples(self):
        v = is_large(Z6, sub(Z6, 0, 1, 2), 3, "left")
        assert v.verdict is True
        assert v.witness == sub(Z6, 0, 3)
        assert is_large(Z6, Subset.full(6), 2, "left").witness == sub(Z6, 0)
        assert is_large(Z6, sub(Z6, 0), 6, "left").verdict is False
        assert is_large(Z6, sub(Z6, 0, 1, 3), 3, "left").verdict is False

    def test_empty_subset_never_large(self):
        for side in SIDES:
            assert is_large(Z4, Subset.empty(4), 4, side).verdict is False

    def test_witness_is_minimal(self):
        # {2,4,5} is two-sided 3-large via the lex-least pair {0,1}
        v = is_large(Z6, sub(Z6, 2, 4, 5), 3, "two-sided")
        assert v.verdict is True and v.witness == sub(Z6, 0, 1)

    def test_two_sided_faf_witness(self):
        v = is_large(Z6, sub(Z6, 0, 1, 2), 3, "two-sided")
        assert v.verdict is True and v.witness == sub(Z6, 0, 2)
        assert product_set(Z6, v.witness, sub(Z6, 0, 1, 2), "FAF") == Subset.full(6)

    def test_two_sided_large_without_being_left_large(self):
        # {0,1,3} and its complement both fail left largeness at kappa=3,
        # yet {0,1,3} is two-sided large: the witness pair may straddle it
        A = sub(Z6, 0, 1, 3)
        assert not is_large(Z6, A, 3, "left").verdict
        assert not is_large(Z6, A.complement(), 3, "left").verdict
        v = is_large(Z6, A, 3, "two-sided")
        assert v.verdict is True
        assert product_set(Z6, v.witness, A, "FAF") == Subset.full(6)

    @given(SMALL_GROUPS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_witness_reverifies(self, G, data):
        A = Subset(G.order, data.draw(st.integers(0, G.full_mask)))
        kappa = data.draw(st.integers(2, G.order))
        side = data.draw(st.sampled_from(SIDES))
        v = is_large(G, A, kappa, side)
        if v.verdict:
            F = v.witness
            assert F.size <= kappa - 1
            shape = {"left": "FA", "right": "AF", "two-sided": "FAF"}[side]
            assert product_set(G, F, A, shape) == Subset.full(G.order)

    @given(SMALL_GROUPS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_kappa_and_subset(self, G, data):
        A = Subset(G.order, data.draw(st.integers(0, G.full_mask)))
        kappa = data.draw(st.integers(2, G.order - 1))
        side = data.draw(st.sampled_from(SIDES))
        if is_large(G, A, kappa, side).verdict:
            assert is_large(G, A, kappa + 1, side).verdict
            B = A | Subset(G.order, data.draw(st.integers(0, G.full_mask)))
            assert is_large(G, B, kappa, side).verdict


class TestIsThick:
    def test_variant_divergence_example(self):
        a = sub(Z2, 1)
        assert is_thick(Z2, a, 2, "left", "witness-in-G").verdict is True
        v = is_thick(Z2, a, 2, "left", "witness-in-A")
        assert v.verdict is False and v.witness == sub(Z2, 1)

    def test_examples(self):
        assert is_thick(Z6, sub(Z6, 0, 1, 2), 3, "left", "witness-in-G").verdict is False
        for variant in ("witness-in-A", "witness-in-G"):
            v = is_thick(Z6, Subset.full(6), 4, "left", variant)
            assert v.verdict is True
            # every maximal F is checked, the first four shown with a
            # verified translating element (test_hitting holds every F to
            # the raw per-(F, x) check)
            assert v.witness.total == len(v.witness) == 20  # C(6,3)
            assert [F.size for F, _ in v.witness.shown] == [3] * 4
            assert all(x in range(6) for _, x in v.witness.shown)

    def test_true_witness_map_is_total(self):
        v = is_thick(Z6, sub(Z6, 1, 2, 3, 4, 5), 3, "left", "witness-in-G")
        assert v.verdict is True
        assert len(v.witness) == 15  # C(6,2) maximal test sets

    def test_empty_subset(self):
        # with no element to pick, witness-in-A fails already at F = {};
        # witness-in-G needs a nonempty F to fail
        v = is_thick(Z4, Subset.empty(4), 3, "left", "witness-in-A")
        assert v.verdict is False and v.witness.size == 0
        v = is_thick(Z4, Subset.empty(4), 3, "left", "witness-in-G")
        assert v.verdict is False and v.witness == sub(Z4, 0)

    def test_two_sided_in_a_does_not_imply_left_in_a(self):
        # boundary counterexample: FaF with a in A has an odd letter count,
        # so in C2 the translate lands back in A while Fa leaves it
        a = sub(Z2, 1)
        assert is_thick(Z2, a, 2, "two-sided", "witness-in-A").verdict is True
        assert is_thick(Z2, a, 2, "left", "witness-in-A").verdict is False

    @given(SMALL_GROUPS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_duality_against_complement(self, G, data):
        A = Subset(G.order, data.draw(st.integers(0, G.full_mask)))
        kappa = data.draw(st.integers(2, G.order))
        side = data.draw(st.sampled_from(SIDES))
        thick = is_thick(G, A, kappa, side, "witness-in-G").verdict
        assert thick == (not is_large(G, A.complement(), kappa, side).verdict)

    @given(SMALL_GROUPS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_inversion_symmetry(self, G, data):
        A = Subset(G.order, data.draw(st.integers(0, G.full_mask)))
        kappa = data.draw(st.integers(2, G.order))
        variant = data.draw(st.sampled_from(("witness-in-A", "witness-in-G")))
        inv_a = Subset(G.order, inverse_mask(G, A.mask))
        assert (
            is_thick(G, A, kappa, "left", variant).verdict
            == is_thick(G, inv_a, kappa, "right", variant).verdict
        )
        assert (
            is_large(G, A, kappa, "left").verdict
            == is_large(G, inv_a, kappa, "right").verdict
        )


class TestIsSmall:
    def test_empty_set_is_small(self):
        for side in ("left", "right", "two-sided"):
            assert is_small(Z4, Subset.empty(4), 3, side).verdict is True

    def test_failing_witnesses(self):
        # the (size, lex)-least failing large set is {0,1} in both cases:
        # {0,1} is 3-large, and removing A leaves a singleton or less
        v = is_small(Z4, sub(Z4, 0, 2), 3, "left")
        assert v.verdict is False and v.witness == sub(Z4, 0, 1)
        assert is_large(Z4, v.witness, 3, "left").verdict
        assert not is_large(Z4, v.witness - sub(Z4, 0, 2), 3, "left").verdict
        v = is_small(Z4, sub(Z4, 0), 3, "left")
        assert v.verdict is False and v.witness == sub(Z4, 0, 1)

    @given(SMALL_GROUPS, st.data())
    @settings(max_examples=30, deadline=None)
    def test_small_implies_not_large(self, G, data):
        A = Subset(G.order, data.draw(st.integers(0, G.full_mask)))
        kappa = data.draw(st.integers(2, G.order))
        side = data.draw(st.sampled_from(("left", "right")))
        if is_small(G, A, kappa, side).verdict:
            assert not is_large(G, A, kappa, side).verdict


class TestThickToLarge:
    def test_worked_example(self):
        cover = CoverDecomposition.blocks(Z6, 2)
        F = thick_to_large_witness(Z6, sub(Z6, 0, 1, 2, 3, 4), 3, cover)
        assert F == sub(Z6, 0, 4)
        assert product_set(Z6, sub(Z6, 0, 1, 2, 3, 4), F, "AF") == Subset.full(6)

    def test_full_group_gives_identity(self):
        cover = CoverDecomposition.blocks(Z6, 2)
        assert thick_to_large_witness(Z6, Subset.full(6), 3, cover) == sub(Z6, 0)

    def test_failing_cell_reported(self):
        cover = CoverDecomposition.blocks(Z6, 2)
        with pytest.raises(CoverCellError) as exc:
            thick_to_large_witness(Z6, sub(Z6, 0), 3, cover)
        assert exc.value.cell_index == 0

    def test_cover_validation(self):
        with pytest.raises(ValueError):
            CoverDecomposition.blocks(Z6, 3).validate(Z6, 3)  # cells exceed kappa-1
        CoverDecomposition.blocks(Z6, 2).validate(Z6, 3)
        bad = CoverDecomposition((sub(Z6, 0, 1), sub(Z6, 1, 2)))
        with pytest.raises(ValueError):
            bad.validate(Z6, 3)


class TestBallUncoveredWitness:
    def test_everything_covered(self):
        ball = enumerate_ball(2, 3)
        everything = WordSetPredicate("all words", lambda w: True)
        assert ball_uncovered_witness(ball, [()], everything) is None
        assert all(covered([()], everything, w) for w in ball)

    def test_fresh_letter_witness(self):
        S = s_set(4, 0)
        H = words_over([0, 1], 2)
        assert ball_uncovered_witness(enumerate_ball(4, 2), H, S) == (3,)

    @pytest.mark.parametrize(
        "m,radius,H,A",
        [
            (2, 5, enumerate_ball(2, 3).words, s_set(2, 0)),
            (2, 3, words_over([0], 1), s_set(2, 0)),
            (4, 2, words_over([0, 1], 2), s_set(4, 0)),
            (4, 3, words_over([0, 1, 2], 2), thm3_partition(4, [0, 1], 2).cells[0]),
            (4, 3, words_over([0, 2, 3], 1), thm3_partition(4, [0, 1], 2).cells[1]),
            (2, 4, enumerate_ball(2, 1).words, rank2_partition(3).cells[2]),
            # not closed under inverses, so h and h^-1 cover different words
            (2, 4, [(1,), (2, 1)], rank2_partition(3).cells[0]),
        ],
    )
    def test_skipped_words_are_covered_and_the_witness_is_not(self, m, radius, H, A):
        ball = enumerate_ball(m, radius)
        w = ball_uncovered_witness(ball, H, A)
        assert w is not None and not covered(H, A, w)
        assert all(covered(H, A, u) for u in ball.words[: ball.index_of(w)])


class TestBudget:
    def test_inconclusive_verdicts(self):
        G = build_group("dihedral:4")
        A = sub(G, 0, 2, 5)
        assert is_large(G, A, 5, "left", node_budget=1).verdict is None
        assert is_thick(G, A, 5, "left", node_budget=1).verdict is None
        assert is_small(G, A, 5, "left", node_budget=1).verdict is None
