import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from palrich.core import (
    Alphabet,
    Antimorphism,
    InputError,
    Morphism,
    Word,
    apply_antimorphism,
    apply_morphism,
)
from palrich.decompose import (
    DecomposeError,
    richness_conditions_check,
    theorem1_decompose,
    theorem2_decompose,
    theorem3_pipeline,
    verify_eq3,
    verify_eq4,
)
from palrich.generators import (
    DirectiveSequence,
    fibonacci_source,
    periodic_source,
    theta_standard_with_seed_source,
    thue_morse_source,
)
from palrich.palindromes import defect
from palrich.returns import crw_palindromicity_scan
from conftest import every_involution, random_involution, random_word, w
from oracles import factor_loop_condition_i


# --- simple-path recoding -----------------------------------------------------

def test_simple_path_coding_fibonacci_frozen(tr, ab):
    fib = fibonacci_source().prefix(2000)
    coding = theorem1_decompose(tr, fib, 1)
    assert coding.n == 1
    assert {tok: x.text for tok, x in coding.path_table.items()} == \
        {"[0]": "aba", "[1]": "aa"}
    assert coding.phi.describe() == {"[0]": "ab", "[1]": "a"}
    # refactorization covers the prefix between first and last special position
    covered = apply_morphism(coding.phi, coding.v_prefix)
    assert covered.symbols == fib.symbols[coding.covered_start:coding.covered_end]
    assert coding.covered_start == 0
    rep = richness_conditions_check(coding.theta2, coding.v_prefix, 12)
    assert rep.condition_i and rep.condition_ii and rep.both


def test_simple_path_coding_theta2_involution(tr, ab):
    tm = thue_morse_source().prefix(3000)
    coding = theorem1_decompose(tr, tm, 2)
    th2 = coding.theta2
    assert all(th2.pairing[th2.pairing[i]] == i for i in range(len(th2.alphabet)))
    # each path letter maps to the letter of the Theta-image path
    for tok, path in coding.path_table.items():
        img = apply_antimorphism(tr, path)
        tok2 = th2.alphabet.letters[th2.pairing[coding.path_alphabet.index(tok)]]
        assert coding.path_table[tok2] == img


def test_simple_path_periodic_branch(tr, ab):
    word = periodic_source(w(ab, "ab")).prefix(200)
    # (ab)^100 has special factors at small n? no: complexity is bounded, so
    # at n where no special factor exists the unary branch runs
    coding = theorem1_decompose(tr, word, 3)
    assert coding.flags.get("periodic")
    assert coding.flags["period_length"] == 2
    assert len(coding.path_alphabet) == 1
    assert apply_morphism(coding.phi, coding.v_prefix).symbols == word.symbols


def test_simple_path_validation(tr, ab):
    with pytest.raises(InputError):
        theorem1_decompose(tr, w(ab, "abab"), 2)
    abc = Alphabet(("a", "b", "c"))
    trc = Antimorphism.reversal(abc)
    word = periodic_source(Word.from_text(abc, "abc")).prefix(400)
    # (abc)^k has no special factors, so the unary branch applies even though
    # the factor set is not closed under reversal
    coding = theorem1_decompose(trc, word, 1)
    assert coding.flags.get("periodic")
    assert coding.flags["period_length"] == 3


# --- condition (i) -------------------------------------------------------------

def assert_condition_i_matches_oracle(theta, word, max_factor_len):
    rep = richness_conditions_check(theta, word, max_factor_len)
    expected = factor_loop_condition_i(theta, word, max_factor_len)
    assert rep.condition_i == (not expected)
    assert rep.condition_i_witnesses == tuple(expected[:8])
    return len(expected)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_condition_i_matches_factor_loop(data):
    rng = data.draw(st.randoms(use_true_random=False))
    if data.draw(st.booleans()):
        theta = random_involution(rng, data.draw(st.integers(1, 4)))
        word = random_word(rng, theta, data.draw(st.integers(1, 40)))
    else:
        # over more than 256 letters the sweep slices tuples, not bytes
        ab = Alphabet(tuple(f"x{i}" for i in range(300)))
        pairing = list(range(300))
        if data.draw(st.booleans()):
            pairing[1], pairing[299] = 299, 1
        theta = Antimorphism(ab, tuple(pairing))
        word = Word(ab, tuple(rng.choice((0, 1, 150, 299))
                              for _ in range(data.draw(st.integers(1, 40)))))
    max_factor_len = data.draw(st.integers(1, len(word) + 5))
    assert_condition_i_matches_oracle(theta, word, max_factor_len)


def test_condition_i_reports_first_eight_of_many_witnesses():
    rng = random.Random(5)
    many = 0
    for _ in range(200):
        theta = random_involution(rng, rng.randint(2, 4))
        word = random_word(rng, theta, rng.randint(20, 40))
        if assert_condition_i_matches_oracle(theta, word, len(word)) > 8:
            many += 1
    assert many > 0


def test_defect_zero_implies_clean_scans_exhaustively():
    # the two shortcuts of the decompose layer: a word of Theta-defect 0 has
    # only palindromic complete returns and satisfies condition (i) at every
    # length (the converse fails for finite words and is never used)
    rich = 0
    for k, top in ((1, 10), (2, 11), (3, 7)):
        for theta in every_involution(k):
            for length in range(1, top + 1):
                for sym in itertools.product(range(k), repeat=length):
                    word = Word(theta.alphabet, sym)
                    if defect(theta, word) != 0:
                        continue
                    rich += 1
                    assert not crw_palindromicity_scan(theta, word).violations
                    assert not factor_loop_condition_i(theta, word, length)
    assert rich == 6582


# --- identities ---------------------------------------------------------------

def test_verify_eq3(ab, tr):
    assert verify_eq3(tr, w(ab, "aba"), w(ab, "ab"))
    assert verify_eq3(tr, w(ab, "a"), w(ab, "ab"))
    assert not verify_eq3(tr, w(ab, "aa"), w(ab, "b"))
    assert verify_eq3(tr, w(ab, ""), w(ab, "ab")) == (w(ab, "ba") == w(ab, "ab"))


def test_verify_eq4_property(ab, tr):
    fib = fibonacci_source().prefix(4000)
    coding = theorem2_decompose(tr, fib)
    rng = random.Random(3)
    b = coding.return_alphabet
    for _ in range(200):
        length = rng.randint(0, 10)
        u = Word(b, tuple(rng.randrange(len(b)) for _ in range(length)))
        assert verify_eq4(tr, coding.phi, coding.p, u)


def test_verify_eq4_detects_corruption(ab, tr):
    fib = fibonacci_source().prefix(4000)
    coding = theorem2_decompose(tr, fib)
    images = list(coding.phi.images)
    bad = Word(ab, images[0].symbols + (0,))
    broken = Morphism(coding.return_alphabet, ab, tuple([bad] + images[1:]))
    u = Word(coding.return_alphabet, (0, 1))
    assert not verify_eq4(tr, broken, coding.p, u)


# --- return-word recoding -----------------------------------------------------

def test_return_coding_fibonacci_frozen(tr, ab):
    fib = fibonacci_source().prefix(4000)
    coding = theorem2_decompose(tr, fib)
    assert coding.p.text == "a"
    assert tuple(x.text for x in coding.returns) == ("ab", "a")
    assert coding.eq3_ok
    assert coding.m == 2
    v = coding.v_prefix
    assert defect(Antimorphism.reversal(v.alphabet), v) == 0


def test_return_coding_hint(tr, ab):
    fib = fibonacci_source().prefix(4000)
    coding = theorem2_decompose(tr, fib, p_hint=w(ab, "aba"))
    assert tuple(x.text for x in coding.returns) == ("aba", "ab")
    assert coding.eq3_ok
    covered = apply_morphism(coding.phi, coding.v_prefix)
    assert covered.symbols == fib.symbols[:coding.covered_length]


def test_return_coding_hint_validation(tr, ab):
    fib = fibonacci_source().prefix(400)
    with pytest.raises(DecomposeError):
        theorem2_decompose(tr, fib, p_hint=w(ab, "ba"))  # not a prefix
    with pytest.raises(DecomposeError):
        theorem2_decompose(tr, fib, p_hint=w(ab, "ab"))  # not a palindrome


def test_return_coding_exchange_standard(ab):
    swap = Antimorphism.from_pairs(ab, [("a", "b")])
    src = theta_standard_with_seed_source(
        swap, Word(ab, ()), DirectiveSequence.parse(ab, "", "ab"))
    u = src.prefix(8000)
    coding = theorem2_decompose(swap, u)
    assert coding.p.text == "abbaab"
    assert coding.m == 2
    assert coding.eq3_ok
    v = coding.v_prefix
    assert defect(Antimorphism.reversal(v.alphabet), v) == 0


def test_return_coding_rejects_hopeless_input(tr):
    # no palindromic prefix clears the empirical threshold on Thue-Morse
    tm = thue_morse_source().prefix(2000)
    with pytest.raises(DecomposeError) as info:
        theorem2_decompose(tr, tm)
    assert info.value.payload["empirical_threshold"] > 1


# --- full pipeline ------------------------------------------------------------

def test_pipeline_sturmian(ab):
    tr = Antimorphism.reversal(ab)
    out = theorem3_pipeline(tr, Word(ab, ()),
                            DirectiveSequence.parse(ab, "", "ab"), 8000)
    assert out["ok"]
    checks = out["checks"]
    assert checks["M"] == 2 and checks["alphabet_bound"]
    assert checks["returns_end_with_distinct_letters"]
    assert checks["arnoux_rauzy"]["ok"]
    assert checks["derived_defect"] == 0
    assert out["p"] == "a"


def test_pipeline_exchange(ab):
    swap = Antimorphism.from_pairs(ab, [("a", "b")])
    out = theorem3_pipeline(swap, Word(ab, ()),
                            DirectiveSequence.parse(ab, "", "ab"), 8000)
    assert out["ok"]
    assert out["checks"]["M"] == 2
    assert out["p"] == "abbaab"


def test_pipeline_four_letters():
    abcd = Alphabet(("a", "b", "c", "d"))
    th = Antimorphism.from_pairs(abcd, [("a", "b"), ("c", "d")])
    out = theorem3_pipeline(th, Word.from_text(abcd, "ca"),
                            DirectiveSequence.parse(abcd, "", "ab"), 8000)
    assert out["ok"]
    assert out["checks"]["M"] == 2
    assert out["checks"]["M"] <= out["checks"]["source_alphabet_size"]
