"""Readers of the shared PalIndex against the per-letter loops they replaced."""
import random

from hypothesis import given, settings, strategies as st

from palrich.cli import main
from palrich.core import Alphabet, Antimorphism, Word
from palrich.complexity import complexity_table
from palrich.decompose import _pal_prefix_lengths
from palrich.generators import thue_morse_source
from palrich.palindromes import PalIndex, defect_profile, pal_index
from palrich.returns import crw_palindromicity_scan
from conftest import random_involution, random_word
from oracles import (
    append_loop_defect_profile,
    append_loop_pal_prefix_lengths,
    factor_loop_palindromic_complexity,
    letter_check_crw_scan,
)


def draw_word(data, max_len: int):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    return theta, random_word(rng, theta, data.draw(st.integers(0, max_len)))


def assert_readers_match_oracles(theta, word) -> None:
    assert crw_palindromicity_scan(theta, word) == letter_check_crw_scan(theta, word)
    assert defect_profile(theta, word) == append_loop_defect_profile(theta, word)
    assert _pal_prefix_lengths(theta, word) == \
        append_loop_pal_prefix_lengths(theta, word)
    if len(word) >= 1:
        top = len(word) - 1
        assert list(complexity_table(theta, word, top).p) == \
            factor_loop_palindromic_complexity(theta, word, top + 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_readers_match_oracles_random(data):
    theta, word = draw_word(data, 120)
    assert_readers_match_oracles(theta, word)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_crw_min_len_matches_oracle_random(data):
    theta, word = draw_word(data, 120)
    min_len = data.draw(st.integers(1, 6))
    assert crw_palindromicity_scan(theta, word, min_len) == \
        letter_check_crw_scan(theta, word, min_len)


def test_crw_scan_over_large_alphabet_matches_oracle():
    # over more than 256 letters the scan slices tuples instead of bytes
    ab = Alphabet(tuple(f"x{i}" for i in range(300)))
    pairing = list(range(300))
    pairing[1], pairing[299] = 299, 1
    rng = random.Random(3)
    for theta in (Antimorphism.reversal(ab), Antimorphism(ab, tuple(pairing))):
        for _ in range(20):
            word = Word(ab, tuple(rng.choice((0, 1, 299))
                                  for _ in range(rng.randint(0, 80))))
            assert crw_palindromicity_scan(theta, word) == \
                letter_check_crw_scan(theta, word)


def test_memo_switches_words(tr, swap):
    # a, b, then a again: each answer must be that word's, never the
    # previous word's; b has a's letters under another Theta
    tm = thue_morse_source().prefix(300)
    other = thue_morse_source().prefix(200)
    for theta, word in ((tr, tm), (swap, tm), (tr, other), (tr, tm)):
        assert_readers_match_oracles(theta, word)


def test_analyze_builds_one_pal_index(capsys, monkeypatch):
    builds = []
    init = PalIndex.__init__

    def counting_init(self, theta):
        builds.append(theta)
        init(self, theta)
    monkeypatch.setattr(PalIndex, "__init__", counting_init)
    pal_index.cache_clear()
    assert main(["analyze", "--gen", "thue_morse", "--len", "400"]) == 0
    capsys.readouterr()
    assert len(builds) == 1
