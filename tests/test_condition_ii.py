"""Condition (ii) read from one text of v's positions sorted by pair, against
the one-pass loop it replaced and the per-letter occurrence merge
(``tests/oracles.py``).  The 2-to-65537-letter alphabets, letter 10 (a
newline) among them, are in ``test_encoding.py``."""
import itertools
import random

from hypothesis import given, settings, strategies as st

from palrich.core import Word
from palrich.decompose import richness_conditions_check
from conftest import every_involution, random_involution
from oracles import every_letter_condition_ii, one_pass_condition_ii


def condition_ii(theta, word) -> tuple:
    # max_factor_len 1 keeps condition (i), which is tested elsewhere, cheap
    rep = richness_conditions_check(theta, word, 1)
    got = (rep.condition_ii, rep.condition_ii_witness)
    assert got == one_pass_condition_ii(theta, word) == \
        every_letter_condition_ii(theta, word), word
    return got


def test_short_words_match_oracles():
    outcomes = set()
    for k, top in ((1, 10), (2, 10), (3, 6)):
        for theta in every_involution(k):
            for length in range(1, top + 1):
                for sym in itertools.product(range(k), repeat=length):
                    outcomes.add(condition_ii(theta, Word(theta.alphabet, sym))[0])
    assert outcomes == {True, False}


def alternating_word(rng: random.Random, theta, length: int) -> Word:
    # each pair's letters alternate, from a random first letter, so the word
    # passes until one of the few random letters breaks a pair
    pair, k = theta.pairing, len(theta.alphabet)
    nxt = {min(a, pair[a]): rng.choice((a, pair[a])) for a in range(k)}
    sym = []
    for _ in range(length):
        x = rng.randrange(k)
        a = min(x, pair[x])
        sym.append(nxt[a] if rng.random() < 0.95 else x)
        nxt[a] = pair[sym[-1]]
    return Word(theta.alphabet, tuple(sym))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_involutions_match_oracles(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    theta = random_involution(rng, data.draw(st.integers(1, 9)))
    length = data.draw(st.integers(1, 120))
    if data.draw(st.booleans()):
        word = alternating_word(rng, theta, length)
    else:
        k = len(theta.alphabet)
        word = Word(theta.alphabet, tuple(rng.randrange(k) for _ in range(length)))
    condition_ii(theta, word)


def test_smallest_failing_pair_is_reported():
    # the larger pair fails first, at index 4; the smaller one at index 5
    rng = random.Random(4)
    for _ in range(200):
        theta = random_involution(rng, 9)
        moved = [a for a in range(9) if theta.pairing[a] > a]
        if len(moved) >= 2:
            break
    a, b = moved[:2]
    word = Word(theta.alphabet, (a, b, theta.pairing[b], b, b, a))
    letter = theta.alphabet.letters[a]
    assert condition_ii(theta, word) == (False, f"letter {letter} at index 5")
