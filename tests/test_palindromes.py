import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from palrich.core import Alphabet, Antimorphism, InvariantError, Word
from palrich.generators import fibonacci_source, thue_morse_source
from palrich.palindromes import (
    PalIndex,
    defect,
    defect_profile,
    is_rich_finite,
    longest_theta_pal_suffix,
    theta_pal_closure,
)
from conftest import brute_is_theta_pal, brute_lps, random_involution, \
    random_word, w
from oracles import count_theta_palindromes_expand, \
    distinct_theta_palindromes_naive, occurrence_count


# --- oracle ------------------------------------------------------------------

def test_naive_oracle_examples(ab, tr, swap):
    abc = Alphabet(("a", "b", "c"))
    trc = Antimorphism.reversal(abc)
    got = distinct_theta_palindromes_naive(trc, Word.from_text(abc, "abc"))
    assert {x.text for x in got} == {"", "a", "b", "c"}
    got = distinct_theta_palindromes_naive(swap, w(ab, "ab"))
    assert {x.text for x in got} == {"", "ab"}
    got = distinct_theta_palindromes_naive(trc, Word.from_text(abc, "abca"))
    assert {x.text for x in got} == {"", "a", "b", "c"}


def test_naive_oracle_agrees_with_definition_exhaustively(ab, tr, swap):
    for theta in (tr, swap):
        for n in range(0, 9):
            for bits in itertools.product((0, 1), repeat=n):
                word = Word(ab, bits)
                expected = {word.factor(i, j)
                            for i in range(n + 1) for j in range(i, n + 1)
                            if brute_is_theta_pal(theta, word.factor(i, j))}
                assert distinct_theta_palindromes_naive(theta, word) == expected


# --- PalIndex ----------------------------------------------------------------

def test_pal_index_append_reports(ab, tr, swap):
    # a new palindrome shows as a pal_count step of one; it is the lps
    idx = PalIndex(tr)
    idx.extend(w(ab, "ab").symbols)
    before = idx.pal_count
    assert idx.append(ab.index("a")) is None
    assert idx.pal_count == before + 1
    assert idx.lps_length == 3
    assert idx.lps_word().text == "aba"

    idx = PalIndex(swap)
    idx.append(ab.index("a"))
    before = idx.pal_count
    idx.append(ab.index("b"))
    assert idx.pal_count == before + 1
    assert idx.lps_length == 2
    assert idx.lps_word().text == "ab"

    idx = PalIndex(swap)
    idx.append(ab.index("a"))
    assert idx.pal_count == 1  # "a" is not an E-palindrome: only epsilon
    assert idx.lps_length == 0


def test_pal_index_matches_oracle_exhaustively(ab, tr, swap):
    for theta in (tr, swap):
        for n in range(0, 10):
            for bits in itertools.product((0, 1), repeat=n):
                word = Word(ab, bits)
                idx = PalIndex(theta)
                seen = {Word(ab, ())}
                for k, s in enumerate(bits, start=1):
                    before = idx.pal_count
                    idx.append(s)
                    prefix = word.factor(0, k)
                    oracle = distinct_theta_palindromes_naive(theta, prefix)
                    assert idx.pal_count == len(oracle)
                    assert idx.palindromes() == oracle
                    # at most one new palindrome per step, and it is the lps
                    new = oracle - seen
                    assert len(new) <= 1
                    if new:
                        only = next(iter(new))
                        assert idx.pal_count == before + 1
                        assert idx.lps_length == len(only)
                        assert only == brute_lps(theta, prefix)
                    else:
                        assert idx.pal_count == before
                    assert idx.lps_word() == brute_lps(theta, prefix)
                    seen = oracle


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pal_index_matches_oracles_random(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    word = random_word(rng, theta, data.draw(st.integers(0, 120)))
    idx = PalIndex(theta)
    idx.extend(word.symbols)
    oracle = distinct_theta_palindromes_naive(theta, word)
    assert idx.pal_count == len(oracle)
    assert idx.pal_count == count_theta_palindromes_expand(theta, word)


def test_pal_index_unioccurrence_against_occurrence_count(ab, tr, swap):
    # the lps occurs once exactly when the append added a palindrome
    rng = random.Random(7)
    for theta in (tr, swap):
        for _ in range(40):
            word = random_word(rng, theta, rng.randint(1, 60))
            idx = PalIndex(theta)
            for k, s in enumerate(word.symbols, start=1):
                before = idx.pal_count
                idx.append(s)
                if idx.lps_length > 0:
                    uni = occurrence_count(word.factor(0, k), idx.lps_word()) == 1
                    assert (idx.pal_count == before + 1) == uni


# --- defect ------------------------------------------------------------------

def test_defect_examples(ab, tr, swap):
    abc = Alphabet(("a", "b", "c"))
    trc = Antimorphism.reversal(abc)
    assert defect(trc, Word.from_text(abc, "abca")) == 1
    assert defect(swap, w(ab, "ab")) == 0  # 2 + 1 - 1 - 2
    fib = fibonacci_source().prefix(2000)
    assert defect(tr, fib) == 0


def test_negative_defect_raises(ab, tr, monkeypatch):
    monkeypatch.setattr(PalIndex, "defect", property(lambda self: -1))
    with pytest.raises(InvariantError):
        defect(tr, w(ab, "ab"))


def test_defect_profile(ab, tr):
    abc = Alphabet(("a", "b", "c"))
    trc = Antimorphism.reversal(abc)
    prof = defect_profile(trc, Word.from_text(abc, "abca"))
    assert list(prof.values) == [0, 0, 0, 0, 1]
    prof = defect_profile(tr, w(ab, "aaaa"))
    assert list(prof.values) == [0, 0, 0, 0, 0]


def test_thue_morse_prefix_defect_frozen(tr):
    # value computed with the quadratic oracle before freezing
    tm64 = thue_morse_source().prefix(64)
    assert len(distinct_theta_palindromes_naive(tr, tm64)) == 53
    assert defect(tr, tm64) == 64 + 1 - 0 - 53 == 12
    assert defect_profile(tr, tm64).final() == 12


def test_defect_profile_matches_per_prefix_oracle_and_monotonicity(ab, tr, swap):
    rng = random.Random(13)
    for theta in (tr, swap):
        for _ in range(30):
            word = random_word(rng, theta, rng.randint(0, 80))
            prof = defect_profile(theta, word)
            assert prof.values[0] == 0
            for k in range(len(word) + 1):
                assert prof.values[k] == \
                    len(word.factor(0, k)) + 1 - prof.gammas[k] - \
                    len(distinct_theta_palindromes_naive(theta, word.factor(0, k)))
                assert prof.values[k] >= 0
                if k:
                    assert prof.values[k] - prof.values[k - 1] in (0, 1)


def test_profile_csv(tr, ab):
    prof = defect_profile(tr, w(ab, "ab"))
    lines = prof.to_csv().strip().splitlines()
    assert lines[0] == "prefix_length,defect,gamma,pal_count"
    assert lines[1] == "0,0,0,1"
    assert len(lines) == 4


# --- closure / suffix --------------------------------------------------------

def test_closure_examples(ab, tr, swap):
    assert theta_pal_closure(tr, w(ab, "ab")).text == "aba"
    assert theta_pal_closure(swap, w(ab, "a")).text == "ab"
    assert theta_pal_closure(tr, w(ab, "aba")).text == "aba"
    assert theta_pal_closure(tr, w(ab, "")).text == ""


def test_closure_minimality_exhaustive(ab, tr, swap):
    # shortest Theta-palindrome with w as a prefix, checked by brute force
    for theta in (tr, swap):
        for n in range(0, 9):
            for bits in itertools.product((0, 1), repeat=n):
                word = Word(ab, bits)
                res = theta_pal_closure(theta, word)
                assert res.symbols[:n] == word.symbols
                assert brute_is_theta_pal(theta, res)
                # nothing shorter works: any shorter extension fails
                for extra in range(len(res) - n):
                    shorter = None
                    target = n + extra
                    for tail in itertools.product((0, 1), repeat=extra):
                        cand = Word(ab, bits + tail)
                        if brute_is_theta_pal(theta, cand):
                            shorter = cand
                            break
                    assert shorter is None or len(shorter) >= len(res)


def test_longest_theta_pal_suffix(ab, tr, swap):
    assert longest_theta_pal_suffix(tr, w(ab, "abaab")).text == "baab"
    assert longest_theta_pal_suffix(swap, w(ab, "aab")).text == "ab"
    assert longest_theta_pal_suffix(swap, w(ab, "a")).text == ""


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_longest_suffix_matches_brute(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 3)))
    word = random_word(rng, theta, data.draw(st.integers(0, 60)))
    assert longest_theta_pal_suffix(theta, word) == brute_lps(theta, word)


def test_is_rich_finite(ab, tr):
    abc = Alphabet(("a", "b", "c"))
    trc = Antimorphism.reversal(abc)
    assert is_rich_finite(trc, Word.from_text(abc, "abc"))
    assert not is_rich_finite(trc, Word.from_text(abc, "abca"))
