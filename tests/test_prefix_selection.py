"""Theorems 2 and 3 choose p from its occurrence list alone.

The library codes the shortest candidate if it has enough occurrences
(theorem 2) or the first bispecial one (theorem 3) and lets eq3 stand for
the complete-return check.  The oracles filter every complete return letter by
letter and find bispecial factors among all factors of the length; the
reports and the errors must agree.
"""
import itertools

from hypothesis import given, settings, strategies as st

import palrich.decompose
from palrich.core import Word, occurrences
from palrich.decompose import (
    DecomposeError,
    _bispecial_coding,
    _candidate_prefix_lengths,
    theorem2_decompose,
)
from palrich.generators import ClosureSource, DirectiveSequence
from conftest import every_involution, random_involution, random_word
from oracles import letter_check_theorem2, special_extensions_theorem3_coding
from test_crw_lemma import CORPUS_4000


def outcome(select, theta, word):
    try:
        result = select(theta, word)
    except DecomposeError as exc:
        return "error", str(exc), exc.payload
    if isinstance(result, tuple):
        target, coding = result
        return "coding", coding.describe(), target
    return "coding", result.describe()


def assert_same_selection(theta, word) -> tuple[bool, bool]:
    # whether theorems 2 and 3 found a coding
    t2 = outcome(theorem2_decompose, theta, word)
    assert t2 == outcome(letter_check_theorem2, theta, word)
    t3 = outcome(_bispecial_coding, theta, word)
    assert t3 == outcome(special_extensions_theorem3_coding, theta, word)
    return t2[0] == "coding", t3[0] == "coding"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_selection_matches_oracle_on_random_words(data):
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
    assert_same_selection(theta, word)


def test_selection_matches_oracle_on_corpus():
    coded = [name for name, theta, word in CORPUS_4000
             if assert_same_selection(theta, word)[0]]
    assert "fibonacci" in coded and "thue_morse" not in coded


def exhaustive_words():
    # every word over 1, 2 and 3 letters up to 12, 13 and 8 letters, under
    # every involution
    for k, top in ((1, 12), (2, 13), (3, 8)):
        for theta in every_involution(k):
            for length in range(top + 1):
                for sym in itertools.product(range(k), repeat=length):
                    yield theta, Word(theta.alphabet, sym)


def test_selection_matches_oracle_exhaustively():
    words, coded = 0, [0, 0]
    for theta, word in exhaustive_words():
        words += 1
        found = assert_same_selection(theta, word)
        coded = [c + f for c, f in zip(coded, found)]
    assert words == 72143   # 72136 non-empty words and 7 empty ones
    assert coded == [17313, 14850]


def test_shortest_candidate_occurs_three_times_exhaustively():
    # a longer candidate is a Theta-palindrome with the shortest one as a
    # prefix, so it ends with it too: three candidates give three occurrences
    many = 0
    for theta, word in exhaustive_words():
        lengths = _candidate_prefix_lengths(theta, word)[1]
        if len(lengths) >= 3:
            many += 1
            assert len(occurrences(word, word.factor(0, lengths[0]))) >= 3
    assert many == 2377


def test_theorem2_calls_occurrences_at_most_once(monkeypatch):
    real = palrich.decompose.occurrences
    calls: list[int] = []

    def counted(w, f):
        calls.append(len(f))
        return real(w, f)

    monkeypatch.setattr(palrich.decompose, "occurrences", counted)
    # the short words with two candidates: when the first one fails, the
    # second is not looked up
    failed = 0
    for theta, word in exhaustive_words():
        if len(_candidate_prefix_lengths(theta, word)[1]) == 2:
            calls.clear()
            failed += outcome(theorem2_decompose, theta, word)[0] == "error"
            assert len(calls) == 1
    assert failed == 346
