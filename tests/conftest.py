import itertools
import random

import pytest

from palrich.core import Alphabet, Antimorphism, InputError, Word
from palrich.generators import (
    ClosureSource,
    DirectiveSequence,
    ThueMorseSource,
    fibonacci_source,
    tribonacci_source,
)
from palrich.palindromes import PalIndex, defect, theta_pal_closure


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


def factor_tuples(symbols, n: int) -> set[tuple]:
    """The distinct length-n factors of ``symbols``."""
    return {symbols[i:i + n] for i in range(len(symbols) - n + 1)}


def factor_set(w: Word, n: int) -> set:
    """Distinct length-n factors of w, as words."""
    if not 0 <= n <= len(w):
        raise InputError(f"factor length {n} out of range for |w|={len(w)}")
    return {Word(w.alphabet, t) for t in factor_tuples(w.symbols, n)}


def is_rich_finite(theta: Antimorphism, word: Word) -> bool:
    return defect(theta, word) == 0


def longest_theta_pal_suffix(theta: Antimorphism, word: Word) -> Word:
    # the closure is word Theta(p), where word = p s and s is the lps
    p_len = len(theta_pal_closure(theta, word)) - len(word)
    return word.factor(p_len, len(word))


def lps_word(idx: PalIndex, word: Word) -> Word:
    """The lps of ``word``, whose letters are all that ``idx`` was given."""
    return word.factor(len(word) - idx.lps_length, len(word))


def random_involution(rng: random.Random, size: int) -> Antimorphism:
    alphabet = Alphabet(tuple("abcdefghi"[:size]))
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


def near_periodic(rng, theta, length, letters=None):
    # a short period over ``letters`` (default: the whole alphabet) repeated,
    # with up to three letters changed
    letters = letters or range(len(theta.alphabet))
    period = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
    sym = [period[i % len(period)] for i in range(length)]
    for _ in range(rng.randint(0, 3)):
        sym[rng.randrange(length)] = rng.choice(letters)
    return Word(theta.alphabet, tuple(sym))


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


def corpus(n: int):
    """(name, Theta, length-n prefix) of the six frozen corpus words."""
    ab, abc = Alphabet(("a", "b")), Alphabet(("a", "b", "c"))
    tr, e = Antimorphism.reversal(ab), Antimorphism.from_pairs(ab, [("a", "b")])
    th = Antimorphism.from_pairs(abc, [("a", "b"), ("c", "c")])
    yield "fibonacci", tr, fibonacci_source().prefix(n)
    yield "tribonacci", Antimorphism.reversal(abc), tribonacci_source().prefix(n)
    yield "thue_morse", tr, ThueMorseSource().prefix(n)
    for name, theta, seed, period in (("ts_exchange", e, "", "ab"),
                                      ("ts_mixed3", th, "", "abc"),
                                      ("ts_seeded_rev", tr, "ab", "ab")):
        letters = theta.alphabet
        src = ClosureSource(
            theta, Word.from_text(letters, seed),
            DirectiveSequence.parse(letters, "", period))
        yield name, theta, src.prefix(n)
