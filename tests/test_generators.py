import pytest
from hypothesis import given, settings, strategies as st

from palrich.core import Alphabet, Antimorphism, InputError, Word
from palrich.palindromes import defect, theta_pal_closure
from palrich.generators import (
    DirectiveSequence,
    arnoux_rauzy_check,
    episturmian_source,
    fibonacci_source,
    periodic_source,
    theta_standard_with_seed_source,
    thue_morse_source,
    tribonacci_source,
)
from conftest import random_involution, random_word, w
from oracles import AppendLoopClosureSource


def test_directive_sequence(ab):
    d = DirectiveSequence.parse(ab, "a", "ba")
    assert [ab.letters[d.letter(k)] for k in range(6)] == \
        ["a", "b", "a", "b", "a", "b"]
    with pytest.raises(InputError):
        DirectiveSequence.parse(ab, "a", "")


def test_periodic_source(ab):
    src = periodic_source(w(ab, "abb"))
    assert src.prefix(7).text == "abbabba"
    assert src.prefix(0).text == ""
    assert src.describe()["period"] == "abb"


def test_thue_morse_prefix_frozen():
    src = thue_morse_source()
    assert src.prefix(8).text == "abbabaab"
    assert src.prefix(16).text == "abbabaabbaababba"


def test_fibonacci_prefix_frozen(ab):
    fib = fibonacci_source()
    assert fib.prefix(20).text == "abaababaabaababaabab"
    assert fib.kind == "episturmian"


def test_prefix_consistency():
    for src in (fibonacci_source(), tribonacci_source(), thue_morse_source()):
        long = src.prefix(500)
        for n in (0, 1, 7, 100, 499):
            assert src.prefix(n).symbols == long.symbols[:n]


def test_tribonacci_matches_manual_closure():
    # rebuild the first closure steps directly from the definition
    abc = Alphabet(("a", "b", "c"))
    tr = Antimorphism.reversal(abc)
    word = Word(abc, ())
    directive = "abcabcabc"
    lengths = []
    for letter in directive:
        word = theta_pal_closure(tr, word + Word.from_text(abc, letter))
        lengths.append(len(word))
    src = tribonacci_source()
    assert src.prefix(lengths[-1]) == word
    log_lengths = [e["length"] for e in src.construction_log[1:len(directive) + 1]]
    assert log_lengths == lengths


def test_closure_steps_are_nested(ab):
    swap = Antimorphism.from_pairs(ab, [("a", "b")])
    src = theta_standard_with_seed_source(
        swap, Word(ab, ()), DirectiveSequence.parse(ab, "", "ab"))
    word = src.prefix(200)
    for entry in src.construction_log:
        m = entry["length"]
        if m <= 200:
            # each construction step is a Theta-palindromic prefix
            step = word.factor(0, m)
            assert theta_pal_closure(swap, step) == step


def test_theta_standard_with_seed_frozen(ab):
    swap = Antimorphism.from_pairs(ab, [("a", "b")])
    src = theta_standard_with_seed_source(
        swap, Word(ab, ()), DirectiveSequence.parse(ab, "", "ab"))
    assert src.prefix(14).text == "abbaababbaabba"
    src2 = theta_standard_with_seed_source(
        swap, w(ab, "aa"), DirectiveSequence.parse(ab, "", "ab"))
    assert src2.prefix(4).text == "aabb"


def test_episturmian_equals_reversal_seedless(ab):
    tr = Antimorphism.reversal(ab)
    d = DirectiveSequence.parse(ab, "", "ab")
    a = episturmian_source(d)
    b = theta_standard_with_seed_source(tr, Word(ab, ()), d)
    assert a.prefix(300) == b.prefix(300)


def test_arnoux_rauzy_check():
    fib = fibonacci_source().prefix(3000)
    assert arnoux_rauzy_check(fib, 20, 2).ok
    trib = tribonacci_source().prefix(3000)
    assert arnoux_rauzy_check(trib, 20, 3).ok
    tm = thue_morse_source().prefix(3000)
    rep = arnoux_rauzy_check(tm, 20, 2)
    assert not rep.ok and rep.first_failure is not None
    ab = Alphabet(("a", "b"))
    per = periodic_source(Word.from_text(ab, "ab")).prefix(300)
    assert not arnoux_rauzy_check(per, 10, 2).ok


def test_generated_words_have_zero_defect(ab):
    tr = Antimorphism.reversal(ab)
    swap = Antimorphism.from_pairs(ab, [("a", "b")])
    assert defect(tr, fibonacci_source().prefix(2000)) == 0
    abc = Alphabet(("a", "b", "c"))
    assert defect(Antimorphism.reversal(abc), tribonacci_source().prefix(2000)) == 0
    # seeded exchange-standard words have finite, eventually constant defect
    src = theta_standard_with_seed_source(
        swap, Word(ab, ()), DirectiveSequence.parse(ab, "", "ab"))
    assert defect(swap, src.prefix(5000)) == 2


@pytest.mark.parametrize("text, valence, first_failure, reason", [
    # length 1 passes; at length 2 "ab" lacks its reversal while the special
    # factors pass: closure fails first
    ("aaabbb", 2, 2, "factor set not closed under reversal"),
    # at length 2 closure still holds but there is no LS factor; closure
    # would only fail at length 3 ("aab")
    ("aaba", 2, 2, "expected one LS and one RS factor, got 0 LS / 0 RS"),
    # the LS and RS factor "a" has two extensions each, not three
    ("abaababaab", 3, 1, "special factor valence 2/2 != 3"),
])
def test_arnoux_rauzy_first_failure(ab, text, valence, first_failure, reason):
    rep = arnoux_rauzy_check(w(ab, text), 6, valence)
    assert (rep.ok, rep.first_failure, rep.reason) == (False, first_failure, reason)


@pytest.mark.parametrize("make", [
    lambda ab: periodic_source(w(ab, "abb")),
    lambda ab: thue_morse_source(),
    lambda ab: fibonacci_source(),
    lambda ab: theta_standard_with_seed_source(
        Antimorphism.reversal(ab), w(ab, "abbbbbbbb"),
        DirectiveSequence.parse(ab, "", "ab")),
], ids=["periodic", "thue_morse", "fibonacci", "theta_standard_seed"])
def test_negative_prefix_length_rejected(ab, make):
    src = make(ab)
    for n in (-1, -3):
        with pytest.raises(InputError):
            src.prefix(n)
    assert src.prefix(0).text == ""


def assert_closure_matches_oracle(theta, seed, d, m, m2):
    # each source is grown twice, so the second call extends the first
    src = theta_standard_with_seed_source(theta, seed, d)
    ref = AppendLoopClosureSource(theta, seed, d)
    for n in (m, m2):
        assert src.prefix(n) == ref.prefix(n)
    assert src.construction_log == ref.construction_log


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closure_source_matches_append_loop_oracle(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    seed = random_word(rng, theta, data.draw(st.integers(0, 12)))
    d = DirectiveSequence(random_word(rng, theta, data.draw(st.integers(0, 4))),
                          random_word(rng, theta, data.draw(st.integers(1, 4))))
    m = data.draw(st.integers(0, 120))
    assert_closure_matches_oracle(theta, seed, d, m,
                                  data.draw(st.integers(m + 1, m + 200)))


@pytest.mark.parametrize("seed", ["", "b", "ab", "abbbbbbbb", "bab"])
@pytest.mark.parametrize("pre, period", [("b", "a"), ("", "a"), ("ab", "b")])
def test_closure_source_single_letter_period(ab, tr, swap, seed, pre, period):
    # one letter per step once the period letter starts the word
    d = DirectiveSequence.parse(ab, pre, period)
    for theta in (tr, swap):
        assert_closure_matches_oracle(theta, w(ab, seed), d, 7, 120)
