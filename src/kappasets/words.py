"""Reduced words over a signed alphabet, ball enumeration, and direct sums.

A word in the free group on m letters is a tuple of nonzero ints: letter i
(0-based) is stored as i + 1, its inverse as -(i + 1), and the empty tuple
is the identity. Every function here keeps words freely reduced, so tuple
equality is group equality.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

Word = tuple[int, ...]
DSWord = tuple[Word, ...]

IDENTITY: Word = ()

#: Refuse to materialize balls (and direct-sum balls) bigger than this.
MAX_BALL_WORDS = 2_000_000
#: Refuse a ball whose words hold more letters than this in all. Every ball
#: of rank >= 2 within MAX_BALL_WORDS fits (the largest, rank 2 and radius
#: 12, holds 12,223,144); it bounds rank 1, whose radius-r ball holds r(r+1).
MAX_BALL_LETTERS = 16_000_000


class WordSyntaxError(ValueError):
    """Malformed word literal."""


def reduce_word(letters: Iterable[int]) -> Word:
    """Freely reduce a sequence of signed letter codes."""
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter code")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def concat(u: Word, v: Word) -> Word:
    """Reduced product u*v; exact for any word lengths, never truncated."""
    i = len(u)
    j = 0
    nv = len(v)
    while i > 0 and j < nv and u[i - 1] == -v[j]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def inverse(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def conjugate(x: Word, g: Word) -> Word:
    """g^-1 * x * g."""
    return concat(concat(inverse(g), x), g)


def ball_size(alphabet_size: int, radius: int) -> int:
    """Count of reduced words of length <= radius, one length at a time.

    Raises the ValueError of enumerate_ball at the first length whose
    running count of words passes MAX_BALL_WORDS, or whose running count of
    the letters those words hold passes MAX_BALL_LETTERS, so no power past
    a limit is formed. The 2m signed letters, which the builder forms at
    every radius, must fit the word limit too.
    """
    m = alphabet_size
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    count, letters, level, limit = 1, 0, 2 * m, MAX_BALL_WORDS
    if level > limit:
        raise ValueError(f"alphabet of rank {m} has {level} signed letters (limit {limit})")
    for length in range(1, radius + 1):
        count += level
        letters += length * level
        for got, unit, most in ((count, "words", limit), (letters, "letters", MAX_BALL_LETTERS)):
            if got > most:
                some = "" if length == radius else "at least "
                raise ValueError(f"ball of rank {m}, radius {radius} has {some}{got} {unit} (limit {most})")
        level *= 2 * m - 1
    return count


class Ball:
    """All reduced words of length <= radius, indexed in (length, lex) order.

    Index 0 is the identity. The index map is built lazily on first use.
    """

    def __init__(self, alphabet_size: int, radius: int, words: list[Word]):
        self.alphabet_size = alphabet_size
        self.radius = radius
        self.words = words

    @property
    def size(self) -> int:
        return len(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    @cached_property
    def _index(self) -> dict[Word, int]:
        return {u: i for i, u in enumerate(self.words)}

    def index_of(self, w: Word) -> int:
        return self._index[w]

    def __contains__(self, w: Word) -> bool:
        return w in self._index

    def __repr__(self) -> str:
        return f"Ball(m={self.alphabet_size}, L={self.radius}, size={self.size})"


def enumerate_ball(alphabet_size: int, radius: int) -> Ball:
    """Enumerate the radius-L ball of the rank-m free group.

    Raises ValueError when the alphabet or the ball passes MAX_BALL_WORDS,
    before any letter set is built.
    """
    ball_size(alphabet_size, radius)
    return Ball(alphabet_size, radius, words_over(range(alphabet_size), radius))


def words_over(letters: Iterable[int], radius: int) -> list[Word]:
    """Reduced words of length <= radius over the given 0-based letters, in
    (length, lex) order; a repeated letter counts once.

    Raises ValueError when the count passes MAX_BALL_WORDS; an alphabet
    past it is refused once its distinct letters are counted that far.
    """
    distinct: set[int] = set()
    for x in letters:
        distinct.add(x)
        if 2 * len(distinct) > MAX_BALL_WORDS:
            raise ValueError(
                f"alphabet of rank at least {len(distinct)} has at least "
                f"{2 * len(distinct)} signed letters (limit {MAX_BALL_WORDS})"
            )
    expected = ball_size(len(distinct), radius)
    codes = [x for i in sorted(distinct) for x in (i + 1, -(i + 1))]
    words = [IDENTITY]
    frontier = words
    for _ in range(radius):
        nxt: list[Word] = []
        for w in frontier:
            back = -w[-1] if w else 0
            for x in codes:
                if x != back:
                    nxt.append(w + (x,))
        words.extend(nxt)
        frontier = nxt
    if len(words) != expected:
        raise RuntimeError("ball enumeration disagrees with the count")
    return words


_XN_TOKEN = re.compile(r"(x[0-9]+)(')?")
_LETTER_TOKEN = re.compile(r"([a-z])(')?")


def parse_word(text: str, alphabet_size: int) -> Word:
    """Parse a word literal: letters a,b,c,... or x1,x2,...; apostrophe inverts.

    Juxtaposition concatenates ("ab'a"). "" and "1" denote the identity.
    """
    s = text.strip()
    if s in ("", "1"):
        return IDENTITY
    if re.fullmatch(r"(x[0-9]+'?)+", s):
        token_re = _XN_TOKEN

        def idx(tok: str) -> int:
            i = int(tok[1:]) - 1
            if i < 0:
                raise WordSyntaxError(f"letter numbering starts at x1: {text!r}")
            return i

    elif re.fullmatch(r"([a-z]'?)+", s):
        token_re = _LETTER_TOKEN

        def idx(tok: str) -> int:
            return ord(tok) - ord("a")

    else:
        raise WordSyntaxError(f"cannot parse word literal {text!r}")
    codes: list[int] = []
    for tok, apos in token_re.findall(s):
        i = idx(tok)
        if i >= alphabet_size:
            raise WordSyntaxError(
                f"letter {tok!r} out of range for alphabet of size {alphabet_size}"
            )
        codes.append(-(i + 1) if apos else i + 1)
    return reduce_word(codes)


def format_word(w: Word) -> str:
    """Inverse of parse_word on reduced words; identity prints as "1"."""
    if not w:
        return "1"
    if max(abs(x) for x in w) <= 26:
        return "".join(chr(ord("a") + abs(x) - 1) + ("'" if x < 0 else "") for x in w)
    return "".join(f"x{abs(x)}" + ("'" if x < 0 else "") for x in w)


@dataclass(frozen=True)
class WordSetPredicate:
    """Intensional word set: a total, deterministic membership test."""

    description: str
    fn: Callable[..., bool]

    def __call__(self, w) -> bool:
        return self.fn(w)

    def __repr__(self) -> str:
        return f"WordSetPredicate({self.description})"


# -- direct sums of free groups ------------------------------------------------


def ds_concat(g: DSWord, h: DSWord) -> DSWord:
    if len(g) != len(h):
        raise ValueError("direct-sum words have different numbers of summands")
    return tuple(concat(a, b) for a, b in zip(g, h))


def ds_inverse(g: DSWord) -> DSWord:
    return tuple(inverse(c) for c in g)


def ds_conjugate(x: DSWord, g: DSWord) -> DSWord:
    """g^-1 * x * g, componentwise."""
    if len(x) != len(g):
        raise ValueError("direct-sum words have different numbers of summands")
    return tuple(conjugate(c, h) for c, h in zip(x, g))


def ds_support(g: DSWord) -> tuple[int, ...]:
    """Indices of the non-identity components."""
    return tuple(i for i, c in enumerate(g) if c)


def ds_rho(g: DSWord) -> int:
    """Last signed letter of the highest-index non-identity component."""
    for c in reversed(g):
        if c:
            return c[-1]
    raise ValueError("ds_rho undefined for the identity tuple")


def enumerate_ds_ball(alphabet_sizes: Sequence[int], radius: int) -> list[DSWord]:
    """All tuples of component words of length <= radius, component 0 major;
    raises ValueError when there are more than MAX_BALL_WORDS."""
    balls = [enumerate_ball(m, radius).words for m in alphabet_sizes]
    total = 1
    for b in balls:
        total *= len(b)
    if total > MAX_BALL_WORDS:
        raise ValueError(f"direct-sum ball has {total} words (limit {MAX_BALL_WORDS})")
    return list(itertools.product(*balls))
