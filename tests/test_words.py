import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kappasets import words as words_module
from kappasets.words import (
    WordSyntaxError,
    ball_size,
    concat,
    conjugate,
    ds_concat,
    ds_conjugate,
    ds_inverse,
    ds_rho,
    ds_support,
    enumerate_ball,
    enumerate_ds_ball,
    first_last,
    first_last2,
    format_word,
    inverse,
    parse_word,
    reduce_word,
    words_over,
)

codes = st.sampled_from([1, -1, 2, -2, 3, -3])
raw_words = st.lists(codes, max_size=14)
words = raw_words.map(reduce_word)


def is_reduced(w):
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


@given(raw_words)
def test_reduce_removes_all_cancellations(raw):
    assert is_reduced(reduce_word(raw))


@given(words)
def test_reduce_is_canonical(w):
    assert reduce_word(w) == w


@given(words, words)
def test_concat_is_reduced_and_bounded(u, v):
    w = concat(u, v)
    assert is_reduced(w)
    assert len(w) <= len(u) + len(v)


@given(words, words, words)
def test_concat_associative(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


@given(words)
def test_identity_and_inverse_laws(w):
    assert concat(w, ()) == w == concat((), w)
    assert concat(w, inverse(w)) == ()
    assert concat(inverse(w), w) == ()


@given(words, words)
def test_first_letter_stable_without_seam_cancellation(u, v):
    # if v does not begin with the inverse of u's last letter, u*v keeps u's
    # first letter
    if u and (not v or v[0] != -u[-1]):
        assert first_last(concat(u, v))[0] == u[0]


def test_concat_examples():
    assert concat((1, 2), (-2, 1)) == (1, 1)
    assert concat((1, 2, -1), (1, -2, -1)) == ()
    assert concat((1,), (2,)) == (1, 2)


def test_first_last():
    assert first_last((1, -2, 1)) == (1, 1)
    assert first_last((-2,)) == (-2, -2)
    with pytest.raises(ValueError):
        first_last(())


def test_first_last2():
    assert first_last2((1, 2, -1)) == ((1, 2), (2, -1))
    assert first_last2((1, 1)) == ((1, 1), (1, 1))
    with pytest.raises(ValueError):
        first_last2((1,))


def test_ball_small_examples():
    b = enumerate_ball(2, 1)
    assert b.words == [(), (1,), (-1,), (2,), (-2,)]
    assert enumerate_ball(1, 3).size == 7
    assert enumerate_ball(2, 8).size == 13121


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("radius", range(9))
def test_ball_matches_closed_form(m, radius):
    # grid capped at 200k words to keep the sweep CI-sized; the cap reads a
    # per-length sum, since ball_size refuses a ball past MAX_BALL_WORDS
    size = 1 + sum(2 * m * (2 * m - 1) ** (k - 1) for k in range(1, radius + 1))
    if size > 200_000:
        pytest.skip("ball too large for the unit grid")
    assert enumerate_ball(m, radius).size == ball_size(m, radius) == size


def test_ball_index_order_and_lookup():
    b = enumerate_ball(2, 4)
    # (length, lex) with letters ranked a < a^-1 < b < b^-1 < ...
    keys = [(len(w), [2 * (abs(x) - 1) + (x < 0) for x in w]) for w in b.words]
    assert keys == sorted(keys)
    assert b.words[0] == ()
    assert b.words[b.index_of((1, 2))] == (1, 2)
    assert (1, 2) in b and (1, 2, 1, 2, 1) not in b
    assert (1, -1) not in b  # unreduced tuples are not ball members


def test_ball_size_limit():
    # 7,686,401 words and 1,457**2 = 2,122,849 tuples, both over MAX_BALL_WORDS;
    # each is refused from its count, before the big ball or product is built;
    # ball_size refuses that ball too
    with pytest.raises(ValueError, match="limit 2000000"):
        enumerate_ball(4, 8)
    with pytest.raises(ValueError, match=r"radius 8 has 7686401 words \(limit 2000000\)"):
        ball_size(4, 8)
    with pytest.raises(ValueError, match="limit 2000000"):
        enumerate_ds_ball((2, 2), 6)


def test_ball_letter_limit():
    # a rank-1 ball within the word limit can hold far more letters than
    # words: radius r holds r(r+1), refused from the running count
    assert ball_size(1, 3999) == 7999
    with pytest.raises(ValueError, match=r"radius 4000 has 16004000 letters \(limit 16000000\)"):
        ball_size(1, 4000)
    with pytest.raises(ValueError, match=r"radius 100000 has at least 16004000 letters"):
        ball_size(1, 100000)
    # every ball of rank >= 2 that the word limit admits is still admitted;
    # past rank 707 only radius 1 is, whose 2m letters are fewer than its words
    for m in range(2, 708):
        radius, size, level = 0, 1, 2 * m
        while size + level <= words_module.MAX_BALL_WORDS:
            radius, size, level = radius + 1, size + level, level * (2 * m - 1)
        assert ball_size(m, radius) == size, m
    assert ball_size(2, 12) == 1062881


#: Prints the error of each builder call at a radius or rank of 10**20.
HUGE_CALLS = """
from kappasets.words import ball_size, enumerate_ball, words_over
for call in (
    lambda: words_over([0, 1], 10**20),
    lambda: enumerate_ball(1, 10**20),
    lambda: enumerate_ball(10**20, 0),
    lambda: words_over(range(10**20), 1),
    lambda: ball_size(2, 10**20),
):
    try:
        call()
    except ValueError as e:
        print(e)
"""


def test_huge_radius_or_rank_is_refused_from_a_bounded_count(cap_memory):
    # the count stops at the first length past the limit, before any power
    # of 2m-1 to the radius is formed, the 2m signed letters are bounded
    # before range(m) becomes a letter set, and words_over counts distinct
    # letters only up to the limit; a child with a timeout turns a
    # regression into a failure rather than a hang
    got = subprocess.run(
        [sys.executable, "-c", HUGE_CALLS], capture_output=True, text=True, timeout=30,
        preexec_fn=cap_memory,
    )
    assert got.returncode == 0, got.stderr
    huge = 10**20
    assert got.stdout.splitlines() == [
        f"ball of rank 2, radius {huge} has at least 3188645 words (limit 2000000)",
        f"ball of rank 1, radius {huge} has at least 16004000 letters (limit 16000000)",
        f"alphabet of rank {huge} has {2 * huge} signed letters (limit 2000000)",
        "alphabet of rank at least 1000001 has at least 2000002 signed letters (limit 2000000)",
        f"ball of rank 2, radius {huge} has at least 3188645 words (limit 2000000)",
    ]


def test_words_over_restricted_alphabet():
    ws = words_over([0, 2], 2)
    assert set(map(abs, (x for w in ws for x in w))) <= {1, 3}
    # 1 + 4 + 4*3 words over two letters
    assert len(ws) == 17


def test_words_over_counts_a_repeated_letter_once(monkeypatch):
    assert words_over([0, 0], 1) == words_over([0], 1) == [(), (1,), (-1,)]
    assert words_over([2, 0, 2], 2) == words_over([0, 2], 2)
    # the word limit counts the distinct letters
    monkeypatch.setattr(words_module, "MAX_BALL_WORDS", 16)
    with pytest.raises(ValueError, match=r"ball of rank 2, radius 2 has 17 words \(limit 16\)"):
        words_over([0, 2, 2], 2)
    assert len(words_over([0, 0], 7)) == 15


def test_parse_and_format():
    assert parse_word("ab'a", 2) == (1, -2, 1)
    assert parse_word("", 3) == ()
    assert parse_word("1", 3) == ()
    assert parse_word("x1x2'x1", 2) == (1, -2, 1)
    assert parse_word("aa'b", 2) == (2,)  # parser reduces
    assert format_word((1, -2, 1)) == "ab'a"
    assert format_word(()) == "1"


def test_parse_errors():
    with pytest.raises(WordSyntaxError):
        parse_word("c", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("a b", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("x0", 2)


def test_format_names_letters_past_z_by_number():
    assert format_word((27, -1)) == "x27x1'"
    assert format_word((26, -1)) == "za'"
    assert parse_word("x27x1'", 30) == (27, -1)


letters30 = st.integers(1, 30).flatmap(lambda i: st.sampled_from([i, -i]))


@given(st.lists(letters30, max_size=6), st.integers(27, 30), st.lists(letters30, max_size=6))
def test_format_roundtrip_past_z(u, high, v):
    w = reduce_word([*u, high, *v])
    assume(any(abs(x) >= 27 for x in w))
    assert parse_word(format_word(w), 30) == w


@given(words)
def test_format_roundtrip(w):
    assert parse_word(format_word(w), 3) == w


def test_ds_basics():
    g = ((2, 1), (), (3,))
    assert ds_support(g) == (0, 2)
    assert ds_rho(g) == 3
    assert ds_rho(((1, -1, 2, -1), (), ())) == -1
    with pytest.raises(ValueError):
        ds_rho(((),) * 3)
    with pytest.raises(ValueError):
        ds_concat(((),) * 2, ((),) * 3)


def test_ds_ball_enumeration():
    ds = enumerate_ds_ball((2, 1), 1)
    assert len(ds) == 5 * 3
    assert ds[0] == ((), ())


ds_words = st.tuples(
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6).map(reduce_word),
    st.lists(st.sampled_from([1, -1]), max_size=6).map(reduce_word),
)


@given(ds_words, ds_words)
@settings(max_examples=200)
def test_ds_conjugation_preserves_support(x, g):
    assert ds_support(ds_conjugate(x, g)) == ds_support(x)


@given(ds_words)
def test_ds_inverse_law(g):
    assert ds_concat(g, ds_inverse(g)) == ((),) * 2


@given(words, words)
def test_conjugate_matches_definition(x, g):
    assert conjugate(x, g) == concat(concat(inverse(g), x), g)
