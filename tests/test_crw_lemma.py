"""The complete-return lemma behind ``palindromes.crw_violation_lengths``.

A non-empty Theta-palindrome has a non-palindromic complete return exactly
when it is the longest Theta-palindromic suffix of at least two prefixes.
The reader is checked against ``returns.crw_palindromicity_scan``, and the
consequence for the theorem 2/3 candidates of ``decompose`` is pinned.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from palrich.core import (
    Alphabet,
    Antimorphism,
    Word,
    occurrences,
)
from palrich.decompose import _candidate_prefix_lengths, _return_coding
from palrich.generators import ClosureSource, DirectiveSequence
from palrich.palindromes import crw_violation_lengths
from palrich.returns import crw_palindromicity_scan
from conftest import corpus, every_involution, random_involution, random_word
from oracles import crw_words, symbols_are_theta_palindrome

CORPUS_4000 = list(corpus(4000))


def fixed_point_free(rng: random.Random, size: int) -> Antimorphism:
    # every letter paired with another one: the lps of a prefix can be empty
    letters = list(range(size))
    rng.shuffle(letters)
    pairing = [0] * size
    for a, b in zip(letters[::2], letters[1::2]):
        pairing[a], pairing[b] = b, a
    return Antimorphism(Alphabet(tuple("abcdefgh"[:size])), tuple(pairing))


def assert_lemma(theta: Antimorphism, word: Word) -> list[int]:
    scan = crw_palindromicity_scan(theta, word)
    lengths = crw_violation_lengths(theta, word.symbols)
    assert sorted(lengths) == sorted(len(f) for f in
                                     {f for f, _ in crw_words(scan)})
    assert scan.empirical_threshold == 1 + max(lengths, default=0)
    return lengths


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_lemma_on_random_words(data):
    rng = data.draw(st.randoms(use_true_random=False))
    if data.draw(st.booleans()):
        theta = random_involution(rng, data.draw(st.integers(1, 4)))
    else:
        theta = fixed_point_free(rng, data.draw(st.sampled_from([2, 4])))
    if data.draw(st.booleans()):
        word = random_word(rng, theta, data.draw(st.integers(0, 40)))
    else:
        # near-periodic: a short random block repeated, a few letters changed
        block = random_word(rng, theta, data.draw(st.integers(1, 5))).symbols
        sym = list((block * 40)[:data.draw(st.integers(1, 120))])
        for _ in range(data.draw(st.integers(0, 2))):
            sym[rng.randrange(len(sym))] = rng.randrange(len(theta.alphabet))
        word = Word(theta.alphabet, tuple(sym))
    assert_lemma(theta, word)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lemma_on_tuple_path(data):
    # over more than 256 letters the scanned text holds code points above 255
    ab = Alphabet(tuple(f"x{i}" for i in range(300)))
    pairing = list(range(300))
    if data.draw(st.booleans()):
        pairing[1], pairing[299] = 299, 1
    theta = Antimorphism(ab, tuple(pairing))
    rng = data.draw(st.randoms(use_true_random=False))
    word = Word(ab, tuple(rng.choice((0, 1, 150, 299))
                          for _ in range(data.draw(st.integers(0, 60)))))
    assert_lemma(theta, word)


@pytest.mark.parametrize("name,theta,word", CORPUS_4000,
                         ids=[name for name, _, _ in CORPUS_4000])
def test_lemma_on_corpus(name, theta, word):
    lengths = assert_lemma(theta, word)
    if name == "thue_morse":
        assert (len(lengths), max(lengths)) == (640, 1024)
    elif name in ("fibonacci", "tribonacci", "ts_seeded_rev"):
        assert lengths == []


def test_lemma_exhaustively():
    # every word over 1, 2 and 3 letters up to 12, 13 and 8 letters, under
    # every involution
    violating = 0
    for k, top in ((1, 12), (2, 13), (3, 8)):
        for theta in every_involution(k):
            for length in range(top + 1):
                for sym in itertools.product(range(k), repeat=length):
                    if assert_lemma(theta, Word(theta.alphabet, sym)):
                        violating += 1
    assert violating == 18506 + 24018


def assert_candidates_have_palindromic_returns(theta: Antimorphism,
                                               word: Word) -> int:
    # every candidate p is longer than the longest violating palindrome, so
    # each complete return qp is a Theta-palindrome, tested letter by letter,
    # and eq3 (p Theta(q) = q p) holds for every return word q
    _target, lengths = _candidate_prefix_lengths(theta, word)
    for length in lengths:
        p = word.factor(0, length)
        occ = occurrences(word, p)
        if len(occ) < 3:
            continue
        coding = _return_coding(theta, word, p, occ)
        assert all(symbols_are_theta_palindrome(theta.pairing, q.symbols + p.symbols)
                   for q in coding.phi.images)
        assert coding.eq3_ok
    return len(lengths)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_return_coding_accepts_every_candidate_on_random_words(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    if data.draw(st.booleans()):
        word = random_word(rng, theta, data.draw(st.integers(1, 80)))
    else:
        # closure words start with many Theta-palindromic prefixes
        seed = random_word(rng, theta, data.draw(st.integers(0, 3)))
        d = DirectiveSequence(random_word(rng, theta, data.draw(st.integers(0, 3))),
                              random_word(rng, theta, data.draw(st.integers(1, 4))))
        word = ClosureSource(theta, seed, d).prefix(
            data.draw(st.integers(1, 400)))
    assert_candidates_have_palindromic_returns(theta, word)


def test_return_coding_accepts_every_candidate_on_corpus():
    tried = sum(assert_candidates_have_palindromic_returns(theta, word)
                for _name, theta, word in CORPUS_4000)
    assert tried > 0
