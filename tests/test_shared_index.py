"""Readers of the shared PalIndex and of the shared suffix automaton against
the per-letter and per-length loops they replaced."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from palrich.cli import main
from palrich.core import Alphabet, Antimorphism, Word
from palrich import complexity
from palrich.complexity import _SuffixAutomaton, closed_under_theta, \
    complexity_table
from palrich.generators import ThueMorseSource, arnoux_rauzy_check
from palrich.palindromes import PalIndex, defect_profile, pal_index, \
    pal_prefix_lengths
from palrich.returns import crw_palindromicity_scan
from conftest import every_involution, random_involution, random_word
from oracles import (
    append_loop_defect_profile,
    append_loop_pal_prefix_lengths,
    crw_outcome,
    factor_loop_palindromic_complexity,
    factor_set_closed_under_theta,
    factor_set_complexity,
    letter_check_crw_scan,
    special_extensions_arnoux_rauzy_check,
)


def draw_word(data, max_len: int):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    return theta, random_word(rng, theta, data.draw(st.integers(0, max_len)))


def assert_readers_match_oracles(theta, word) -> None:
    assert crw_outcome(crw_palindromicity_scan(theta, word)) == \
        crw_outcome(letter_check_crw_scan(theta, word))
    assert defect_profile(theta, word) == append_loop_defect_profile(theta, word)
    assert pal_prefix_lengths(theta, word.symbols) == \
        append_loop_pal_prefix_lengths(theta, word)
    if len(word) >= 1:
        top = len(word) - 1
        table = complexity_table(theta, word, top)
        assert list(table.p) == \
            factor_loop_palindromic_complexity(theta, word, top + 1)
        assert list(table.c) == factor_set_complexity(word, top + 1)
    for n in (0, 1, 2, 3, len(word), len(word) + 2):
        assert closed_under_theta(theta, word, n) == \
            factor_set_closed_under_theta(theta, word, n)


def theta_palindrome_of(theta, word):
    # w Theta(w) is a Theta-palindrome, so its factor set is closed
    pair = theta.pairing
    return Word(word.alphabet,
                word.symbols + tuple(pair[x] for x in reversed(word.symbols)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_readers_match_oracles_random(data):
    theta, word = draw_word(data, 120)
    assert_readers_match_oracles(theta, word)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_matches_oracle_random(data):
    theta, word = draw_word(data, 60)
    if data.draw(st.booleans()):
        word = theta_palindrome_of(theta, word)
    n = data.draw(st.integers(0, len(word) + 3))
    assert closed_under_theta(theta, word, n) == \
        factor_set_closed_under_theta(theta, word, n)


def test_closure_witness_is_leftmost_on_every_short_word():
    # every word up to 11 letters over 2 letters and up to 7 over 3: the
    # witness is the leftmost of the shortest factors with an absent image,
    # and the Arnoux-Rauzy check reads the same closure length under reversal
    for k, top in ((2, 11), (3, 7)):
        reversal, *others = every_involution(k)
        for m in range(top + 1):
            for symbols in itertools.product(range(k), repeat=m):
                word = Word(reversal.alphabet, symbols)
                for theta in (reversal, *others):
                    for n in range(m + 1):
                        assert closed_under_theta(theta, word, n) == \
                            factor_set_closed_under_theta(theta, word, n)
                closed, witness = factor_set_closed_under_theta(reversal, word, m)
                unclosed, _ = _SuffixAutomaton(symbols).shortest_absent(symbols[::-1])
                assert unclosed == (None if closed else len(witness))
                assert arnoux_rauzy_check(word, m, k) == \
                    special_extensions_arnoux_rauzy_check(word, m, k)


def test_crw_scan_over_large_alphabet_matches_oracle():
    # over more than 256 letters the scan searches two bytes per letter
    ab = Alphabet(tuple(f"x{i}" for i in range(300)))
    pairing = list(range(300))
    pairing[1], pairing[299] = 299, 1
    rng = random.Random(3)
    for theta in (Antimorphism.reversal(ab), Antimorphism(ab, tuple(pairing))):
        for _ in range(20):
            word = Word(ab, tuple(rng.choice((0, 1, 299))
                                  for _ in range(rng.randint(0, 80))))
            assert crw_outcome(crw_palindromicity_scan(theta, word)) == \
                crw_outcome(letter_check_crw_scan(theta, word))


def test_automaton_over_large_alphabet_matches_oracle():
    # letters up to 299 as automaton transitions; some words are closed
    ab = Alphabet(tuple(f"x{i}" for i in range(300)))
    pairing = list(range(300))
    pairing[1], pairing[299] = 299, 1
    rng = random.Random(4)
    outcomes = set()
    for theta in (Antimorphism.reversal(ab), Antimorphism(ab, tuple(pairing))):
        for _ in range(20):
            word = Word(ab, tuple(rng.choice((0, 1, 150, 299))
                                  for _ in range(rng.randint(1, 60))))
            for w in (word, theta_palindrome_of(theta, word)):
                assert list(complexity_table(theta, w, len(w) - 1).c) == \
                    factor_set_complexity(w, len(w))
                for n in (0, 2, len(w) + 1):
                    result = closed_under_theta(theta, w, n)
                    assert result == factor_set_closed_under_theta(theta, w, n)
                    outcomes.add(result[0])
    assert outcomes == {True, False}


def test_memo_switches_words(tr, swap):
    # a, b, then a again: each answer must be that word's, never the
    # previous word's; b has a's letters under another Theta
    tm = ThueMorseSource().prefix(300)
    other = ThueMorseSource().prefix(200)
    for theta, word in ((tr, tm), (swap, tm), (tr, other), (tr, tm)):
        assert_readers_match_oracles(theta, word)


def count_builds(monkeypatch, cls) -> list:
    builds = []
    init = cls.__init__

    def counting_init(self, *args):
        builds.append(args)
        init(self, *args)
    monkeypatch.setattr(cls, "__init__", counting_init)
    return builds


def test_analyze_builds_one_pal_index(capsys, monkeypatch):
    builds = count_builds(monkeypatch, PalIndex)
    pal_index.cache_clear()
    assert main(["analyze", "--gen", "thue_morse", "--len", "400"]) == 0
    capsys.readouterr()
    assert len(builds) == 1


def test_analyze_builds_one_suffix_automaton(capsys, monkeypatch):
    builds = count_builds(monkeypatch, complexity._SuffixAutomaton)
    complexity._factor_counts.cache_clear()
    assert main(["analyze", "--gen", "thue_morse", "--len", "400"]) == 0
    capsys.readouterr()
    assert len(builds) == 1


@pytest.mark.parametrize("argv, letters", [
    (["--gen", "fibonacci"], 400),
    # the seed "ab" is indexed for its closure and palindromic prefixes
    (["--gen", "theta_standard", "--theta", "pairs:a-a,b-b",
      "--seed-word", "ab", "--directive", "(ab)"], 402),
])
def test_closure_words_append_each_letter_once(capsys, monkeypatch, argv, letters):
    # letters given to PalIndex builds, summed over the builds
    builds = count_builds(monkeypatch, PalIndex)
    pal_index.cache_clear()
    assert main(["analyze", *argv, "--len", "400"]) == 0
    capsys.readouterr()
    assert sum(len(symbols) for _, symbols in builds) == letters
