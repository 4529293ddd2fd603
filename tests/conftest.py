import itertools
import random

import pytest

from palrich.core import Alphabet, Antimorphism, Word


@pytest.fixture
def ab():
    return Alphabet(("a", "b"))


@pytest.fixture
def tr(ab):
    return Antimorphism.reversal(ab)


@pytest.fixture
def swap(ab):
    # the exchange antimorphism E with a <-> b (no fixed letters)
    return Antimorphism.from_pairs(ab, [("a", "b")])


def w(alphabet: Alphabet, text: str) -> Word:
    return Word.from_text(alphabet, text)


def brute_is_theta_pal(theta: Antimorphism, word: Word) -> bool:
    sym = word.symbols
    return tuple(theta.pairing[x] for x in reversed(sym)) == sym


def brute_lps(theta: Antimorphism, word: Word) -> Word:
    for l in range(len(word), -1, -1):
        suf = word.factor(len(word) - l, len(word))
        if brute_is_theta_pal(theta, suf):
            return suf
    raise AssertionError("epsilon is always a palindrome")


def brute_occurrences(word: Word, f: Word) -> list:
    m = len(f)
    return [i for i in range(len(word) - m + 1)
            if word.symbols[i:i + m] == f.symbols]


def random_involution(rng: random.Random, size: int) -> Antimorphism:
    alphabet = Alphabet(tuple("abcdefgh"[:size]))
    idx = list(range(size))
    rng.shuffle(idx)
    pairing = [-1] * size
    while idx:
        a = idx.pop()
        if pairing[a] != -1:
            continue
        free = [x for x in idx if pairing[x] == -1]
        if free and rng.random() < 0.6:
            b = rng.choice(free)
            pairing[a], pairing[b] = b, a
        else:
            pairing[a] = a
    return Antimorphism(alphabet, tuple(pairing))


def every_involution(k: int):
    """The reversal and every involution with one 2-cycle, over 1 to 3 letters."""
    ab = Alphabet(tuple("abc"[:k]))
    yield Antimorphism.reversal(ab)
    for a, b in itertools.combinations(range(k), 2):
        pairing = list(range(k))
        pairing[a], pairing[b] = b, a
        yield Antimorphism(ab, tuple(pairing))


def random_word(rng: random.Random, theta: Antimorphism, length: int) -> Word:
    k = len(theta.alphabet)
    return Word(theta.alphabet, tuple(rng.randrange(k) for _ in range(length)))


def inline_segments(symbols, starts, tail: int):
    """The per-caller loop that ``core.segment_coding`` replaced: the oracle."""
    letter_of: dict = {}
    segments: list = []
    coding: list = []
    for a, b in zip(starts, starts[1:]):
        seg = symbols[a:b + tail]
        if seg not in letter_of:
            letter_of[seg] = len(segments)
            segments.append(seg)
        coding.append(letter_of[seg])
    return segments, coding
