"""Named subset and partition constructions, bundled with verification.

Free-group cells are intensional predicates (membership decidable for a
word of any length); finite-group cells are explicit subsets. Every
partition built here is verified disjoint-and-covering once, before it is
returned: exhaustively for group partitions, and for predicate partitions
on the ball of radius check_radius, which the caller names; callers do not
verify it again.
"""

from __future__ import annotations

from typing import Sequence

from .groups import (
    GroupTable,
    PartitionError,
    Record,
    Subset,
    check_partition,
    inverse_mask,
)
from .words import (
    Ball,
    DSWord,
    Word,
    WordSetPredicate,
    ds_rho,
    ds_support,
    enumerate_ball,
    format_word,
)


class Partition(Record):
    """Ordered cells partitioning a finite group or a free group: cells,
    provenance, group (default None) and alphabet_size (default None).

    Group partitions carry Subset cells and their GroupTable; free-group
    partitions carry WordSetPredicate cells plus the alphabet size, and are
    checked over balls (the global claim holds by construction).
    """

    __slots__ = ("cells", "provenance", "group", "alphabet_size")
    _defaults = (None, None)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def verify_on_group(self) -> None:
        if self.group is None:
            raise TypeError("not a finite-group partition")
        check_partition(self.group, self.cells, self.provenance)

    def verify_on_ball(self, ball: Ball) -> None:
        """Check every ball word lands in exactly one cell."""
        if self.alphabet_size is None:
            raise TypeError("not a free-group partition")
        if ball.alphabet_size != self.alphabet_size:
            raise ValueError("ball alphabet does not match the partition")
        tests = [cell.fn for cell in self.cells]
        for w in ball.words:
            hits = [i for i, fn in enumerate(tests) if fn(w)]
            if len(hits) != 1:
                raise PartitionError(
                    f"{self.provenance}: word {format_word(w)} lies in cells {hits}"
                )


# -- the endpoint-marked set S ---------------------------------------------------


def s_set(alphabet_size: int, letter: int = 0) -> WordSetPredicate:
    """Words whose first and last letters are the marked letter (either sign).

    Sandwiching with K = {e, a, a^-1} maps any word into the set, so it is
    large with a 3-element witness, yet no finite H covers it from one side.
    """
    if alphabet_size < 2:
        raise ValueError("the endpoint-marked set needs an alphabet of size >= 2")
    if not 0 <= letter < alphabet_size:
        raise ValueError("marked letter out of range")
    code = letter + 1

    def member(w: Word) -> bool:
        return bool(w) and abs(w[0]) == code and abs(w[-1]) == code

    return WordSetPredicate(f"endpoints marked {format_word((letter + 1,))}", member)


# -- two-cell split by last letter ------------------------------------------------


def thm3_partition(
    alphabet_size: int, a1_letters: Sequence[int], check_radius: int
) -> Partition:
    """Split the free group by whether the last letter lies in A1 (either sign).

    Cell 0 collects the words ending in A1; cell 1 is the complement and
    contains the identity.
    """
    ball = enumerate_ball(alphabet_size, check_radius)  # before any letter set
    a1 = frozenset(a1_letters)
    if not a1 or not a1 < set(range(alphabet_size)):
        raise ValueError("A1 must be a nonempty proper subset of the alphabet")

    def in_b1(w: Word) -> bool:
        return bool(w) and abs(w[-1]) - 1 in a1

    names = ",".join(format_word((i + 1,)) for i in sorted(a1))
    cells = (
        WordSetPredicate(f"last letter in {{{names}}}", in_b1),
        WordSetPredicate(f"last letter not in {{{names}}}", lambda w: not in_b1(w)),
    )
    part = Partition(cells, f"last-letter split A1={{{names}}}", alphabet_size=alphabet_size)
    part.verify_on_ball(ball)
    return part


# -- three-cell constructions ------------------------------------------------------


def split3_partition(
    alphabet_size: int,
    a1: Sequence[int],
    a2: Sequence[int],
    a3: Sequence[int],
    check_radius: int,
) -> Partition:
    """Three cells cut by which letter-classes the two endpoints avoid.

    Cell 0: both endpoints outside A1; cell 1: both endpoints outside A2
    and not already in cell 0; cell 2: the rest (including the identity).
    """
    ball = enumerate_ball(alphabet_size, check_radius)  # before any letter set
    s1, s2, s3 = frozenset(a1), frozenset(a2), frozenset(a3)
    if not (s1 and s2 and s3):
        raise ValueError("all three letter classes must be nonempty")
    if s1 | s2 | s3 != set(range(alphabet_size)) or len(s1) + len(s2) + len(s3) != alphabet_size:
        raise ValueError("letter classes must partition the alphabet")
    not1 = s2 | s3
    not2 = s1 | s3

    def in_b1(w: Word) -> bool:
        return bool(w) and abs(w[0]) - 1 in not1 and abs(w[-1]) - 1 in not1

    def in_b2(w: Word) -> bool:
        return (
            bool(w) and abs(w[0]) - 1 in not2 and abs(w[-1]) - 1 in not2 and not in_b1(w)
        )

    def in_b3(w: Word) -> bool:
        return not in_b1(w) and not in_b2(w)

    cells = (
        WordSetPredicate("endpoints avoid A1", in_b1),
        WordSetPredicate("endpoints avoid A2, minus cell 0", in_b2),
        WordSetPredicate("remaining words", in_b3),
    )
    part = Partition(cells, "endpoint-class 3-split", alphabet_size=alphabet_size)
    part.verify_on_ball(ball)
    return part


_MIXED2 = frozenset(
    {(1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1)}
)
_A2 = frozenset({(1, 1), (-1, -1)}) | _MIXED2
_B2 = frozenset({(2, 2), (-2, -2)}) | _MIXED2


def rank2_partition(check_radius: int) -> Partition:
    """Rank-2 three-cell split by the length-2 prefix and suffix.

    Cell 0: both factors avoid b^{+-2}; cell 1: both avoid a^{+-2}, minus
    cell 0; cell 2: the rest, including all words shorter than 2.
    """

    def in_b1(w: Word) -> bool:
        return len(w) >= 2 and w[:2] in _A2 and w[-2:] in _A2

    def in_b2(w: Word) -> bool:
        return len(w) >= 2 and w[:2] in _B2 and w[-2:] in _B2 and not in_b1(w)

    def in_b3(w: Word) -> bool:
        return not in_b1(w) and not in_b2(w)

    cells = (
        WordSetPredicate("end factors in {a^+-2} + mixed", in_b1),
        WordSetPredicate("end factors in {b^+-2} + mixed, minus cell 0", in_b2),
        WordSetPredicate("remaining words", in_b3),
    )
    part = Partition(cells, "rank-2 end-factor 3-split", alphabet_size=2)
    part.verify_on_ball(enumerate_ball(2, check_radius))
    return part


def rank1_cell_of_int(v: int) -> int:
    """Doubling-block 2-coloring of the integers: blocks [2^k, 2^(k+1))
    alternate by the parity of k, mirrored at 0; 0 goes to cell 1."""
    if v == 0:
        return 1
    k = abs(v).bit_length() - 1
    return 0 if k % 2 == 0 else 1


def _rank1_value(w: Word) -> int:
    # rank-1 reduced words are powers of the single letter
    return len(w) if (not w or w[0] > 0) else -len(w)


def rank1_partition(check_radius: int) -> Partition:
    """Two-cell split of the rank-1 free group (the integers) by doubling
    blocks; each block eventually outgrows any fixed translate window."""
    cells = (
        WordSetPredicate("doubling blocks, even k", lambda w: rank1_cell_of_int(_rank1_value(w)) == 0),
        WordSetPredicate("doubling blocks, odd k (and 0)", lambda w: rank1_cell_of_int(_rank1_value(w)) == 1),
    )
    part = Partition(cells, "rank-1 doubling-block 2-split", alphabet_size=1)
    part.verify_on_ball(enumerate_ball(1, check_radius))
    return part


# -- meet of a partition with its inverse ------------------------------------------


def meet_partition(G: GroupTable, P: Partition) -> Partition:
    """The common refinement with the inverted partition: all nonempty
    cells A meet B^-1, in canonical (sorted-indices) order."""
    if P.group is None or P.group.mul != G.mul:
        raise ValueError("partition does not live over the given group")
    P.verify_on_group()
    raw = []
    for A in P.cells:
        for B in P.cells:
            m = A.mask & inverse_mask(G, B.mask)
            if m:
                raw.append(m)
    raw = sorted(set(raw), key=lambda m: Subset(G.order, m).indices())
    cells = tuple(Subset(G.order, m) for m in raw)
    out = Partition(cells, f"meet of [{P.provenance}] with its inverse", group=G)
    out.verify_on_group()
    return out


# -- direct-sum marked set -----------------------------------------------------------


def comment2_bset(
    alphabet_sizes: Sequence[int] = (2, 2, 2), marks: Sequence[int] = (0, 0, 0)
) -> WordSetPredicate:
    """Direct-sum words whose top non-identity component ends in that
    summand's marked letter (either sign)."""
    sizes = tuple(alphabet_sizes)
    mks = tuple(marks)
    if len(sizes) != len(mks) or not sizes:
        raise ValueError("need one marked letter per summand")
    for m, a in zip(sizes, mks):
        if m < 1 or not 0 <= a < m:
            raise ValueError("marked letter out of range for its summand")

    def member(g: DSWord) -> bool:
        if len(g) != len(sizes):
            raise ValueError("direct-sum word has the wrong number of summands")
        supp = ds_support(g)
        if not supp:
            return False
        top = supp[-1]
        return abs(ds_rho(g)) - 1 == mks[top]

    desc = ",".join(format_word((a + 1,)) for a in mks)
    return WordSetPredicate(f"top component ends in mark ({desc})", member)
