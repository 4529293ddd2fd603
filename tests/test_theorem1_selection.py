"""Theorem 1 tests each candidate coding length past n by the prefix's
occurrences, and closure at the chosen length by its windows of that length.

The library reads whether the length-n prefix is special from the special
factors it lists at n, and at a greater length from that prefix's own
occurrence list, so it lists the special factors at n and at the chosen
length only.  The oracle lists them at every length it tries and
stops at a length with none; the reports and the errors must agree.  The
oracle tests closure on the factor set of every length up to the chosen one,
where the library tests the images of the windows of the chosen length and
builds a suffix automaton only for the witness of a failure.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import palrich.complexity
import palrich.decompose
import palrich.rauzy
from palrich.core import Alphabet, Antimorphism, Word
from palrich.decompose import DecomposeError, _closed_at, theorem1_decompose
from palrich.generators import tribonacci_source
from conftest import corpus, every_involution, near_periodic, random_involution, random_word
from oracles import factor_set_closed_under_theta, per_length_theorem1


def outcome(select, theta, word, n):
    try:
        return "coding", select(theta, word, n).describe()
    except DecomposeError as exc:
        return "error", str(exc), exc.payload


def assert_same_selection(theta, word) -> list[dict]:
    # the coding reports at every n <= |word| / 4
    codings = []
    for n in range(1, len(word) // 4 + 1):
        got = outcome(theorem1_decompose, theta, word, n)
        assert got == outcome(per_length_theorem1, theta, word, n)
        if got[0] == "coding":
            codings.append(got[1])
    return codings


def some_words(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        theta = random_involution(rng, rng.randint(1, 4))
        make = random_word if rng.random() < 0.5 else near_periodic
        yield theta, make(rng, theta, rng.randint(4, 160))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_selection_matches_oracle_on_random_words(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    make = random_word if data.draw(st.booleans()) else near_periodic
    assert_same_selection(theta, make(rng, theta, data.draw(st.integers(4, 160))))


def test_selection_matches_oracle_with_bump_and_alignment():
    # both ways past the requested n: a longer special prefix (the bump),
    # and none within the search budget (aligned at the first special factor)
    bumped = aligned = 0
    for theta, word in some_words(11, 400):
        for d in assert_same_selection(theta, word):
            bumped += d["n"] > d["requested_n"]
            aligned += d["flags"].get("aligned_at_first_special", False)
    assert bumped > 0 and aligned > 0


def test_selection_matches_oracle_over_300_letters():
    # the same words spelled with the last letters of a 300-letter alphabet:
    # above 256 letters occurrences take the tuple path
    big = Alphabet(tuple(f"x{i}" for i in range(300)))
    bumped = aligned = 0
    for theta, word in some_words(11, 150):
        shift = 300 - len(theta.alphabet)
        big_theta = Antimorphism(big, tuple(range(shift)) +
                                 tuple(shift + x for x in theta.pairing))
        big_word = Word(big, tuple(shift + x for x in word.symbols))
        for d in assert_same_selection(big_theta, big_word):
            bumped += d["n"] > d["requested_n"]
            aligned += d["flags"].get("aligned_at_first_special", False)
    assert bumped > 0 and aligned > 0


def test_special_factors_listed_at_most_twice(monkeypatch):
    real = palrich.rauzy.special_extensions
    calls: list[int] = []

    def counted(sym, n):
        calls.append(n)
        return real(sym, n)

    monkeypatch.setattr(palrich.rauzy, "special_extensions", counted)
    bumped = 0
    for theta, word in some_words(11, 100):
        for n in range(1, len(word) // 4 + 1):
            calls.clear()
            got = outcome(theorem1_decompose, theta, word, n)
            assert len(calls) <= 2
            if got[0] == "coding":
                # at n, and again only at a bumped length
                chosen = got[1]["n"]
                assert calls == ([n] if chosen == n else [n, chosen])
                bumped += chosen > n
    assert bumped > 0


def test_occurrences_searched_only_past_n(monkeypatch):
    real = palrich.decompose.occurrences
    calls: list[int] = []

    def counted(word, factor):
        calls.append(len(factor))
        return real(word, factor)

    monkeypatch.setattr(palrich.decompose, "occurrences", counted)
    at_n = 0
    for theta, word in some_words(12, 100):
        for n in range(1, len(word) // 4 + 1):
            calls.clear()
            got = outcome(theorem1_decompose, theta, word, n)
            # lengths n + 1, n + 2, ... up to the chosen one or the budget
            assert calls == list(range(n + 1, n + 1 + len(calls)))
            if got[0] == "coding" and got[1]["n"] == n and \
                    "aligned_at_first_special" not in got[1]["flags"]:
                assert calls == []   # the length-n prefix is special
                at_n += 1
    assert at_n > 0


def test_closed_at_matches_factor_sets_on_short_words():
    outcomes = set()
    for k, top in ((1, 12), (2, 12), (3, 8)):
        for theta in every_involution(k):
            for length in range(4, top + 1):
                for sym in itertools.product(range(k), repeat=length):
                    word = Word(theta.alphabet, sym)
                    for n in range(1, length // 4 + 1):
                        closed = factor_set_closed_under_theta(theta, word, n)[0]
                        assert _closed_at(theta, word.encoded, n) is closed, (word, n)
                        outcomes.add(closed)
    assert outcomes == {True, False}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closed_at_matches_factor_sets_on_random_words(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 9)))
    make = random_word if data.draw(st.booleans()) else near_periodic
    word = make(rng, theta, data.draw(st.integers(4, 300)))
    # factor_set_closed_under_theta tests the lengths in order and stops at
    # the first failing one, so at n it is closed exactly when that length,
    # found once up to |w| / 4, is past n
    _, witness = factor_set_closed_under_theta(theta, word, len(word) // 4)
    for n in range(1, len(word) // 4 + 1):
        closed = witness is None or len(witness) > n
        assert _closed_at(theta, word.encoded, n) is closed, (word, n)


def _count_automata(monkeypatch) -> list[int]:
    # the length of every word a suffix automaton is built for, from a cold
    # closure cache
    real = palrich.complexity._SuffixAutomaton.__init__
    built: list[int] = []

    def counted(self, symbols):
        built.append(len(symbols))
        real(self, symbols)

    monkeypatch.setattr(palrich.complexity._SuffixAutomaton, "__init__", counted)
    palrich.complexity._factor_counts.cache_clear()
    return built


@pytest.mark.parametrize("name", ["fibonacci", "ts_exchange"])
def test_coding_builds_no_suffix_automaton(monkeypatch, name):
    theta, word = next((t, w) for nm, t, w in corpus(4000) if nm == name)
    built = _count_automata(monkeypatch)
    coding = theorem1_decompose(theta, word, 1)
    assert coding.n >= 1 and built == []


def test_closure_failure_builds_the_automaton_for_its_witness(monkeypatch):
    # tribonacci is closed under reversal, not under a <-> b: Theta(ac) = cb
    # is absent, and ac is the leftmost shortest factor with an absent image
    abc = Alphabet(("a", "b", "c"))
    theta = Antimorphism.from_pairs(abc, [("a", "b"), ("c", "c")])
    built = _count_automata(monkeypatch)
    with pytest.raises(DecomposeError) as exc:
        theorem1_decompose(theta, tribonacci_source().prefix(400), 2)
    assert exc.value.payload == {"n": 2, "witness": "ac"} and built == [400]
