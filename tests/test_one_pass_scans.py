"""The Arnoux-Rauzy check read from one suffix automaton, condition (i)
read from the distinct minimal segments of one sorted suffix table and
condition (ii) read in one pass, against the per-length and per-letter scans
they replaced (``tests/oracles.py``)."""
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import palrich.generators
import palrich.rauzy
from palrich.complexity import _SuffixAutomaton, default_safe_length
from palrich.core import Alphabet, Antimorphism, Word
from palrich.decompose import (
    _bispecial_coding,
    _mirror_bounded_witnesses,
    richness_conditions_check,
    theorem1_decompose,
)
from palrich.generators import (
    ClosureSource,
    DirectiveSequence,
    ThueMorseSource,
    arnoux_rauzy_check,
    fibonacci_source,
)
from palrich.rauzy import special_extensions
from conftest import (
    corpus,
    every_involution,
    random_involution,
    random_word,
    w,
)
from oracles import (
    DictSuffixAutomaton,
    every_letter_condition_ii,
    radius_table_condition_i,
    special_extensions_arnoux_rauzy_check,
    theta_pal_radii,
    window_condition_i,
)


def assert_valences_match(sym: tuple, top: int) -> None:
    left, right = _SuffixAutomaton(sym).special_valences(top)
    assert (left, right) == DictSuffixAutomaton(sym).special_valences(top)
    assert len(left) == len(right) == top + 1
    for n in range(1, top + 1):
        ls, rs = special_extensions(sym, n)
        assert left[n] == Counter(len(ext) for ext in ls.values()), n
        assert right[n] == Counter(len(ext) for ext in rs.values()), n


def assert_ar_matches(v: Word, max_len: int, valence: int) -> None:
    assert (arnoux_rauzy_check(v, max_len, valence)
            == special_extensions_arnoux_rauzy_check(v, max_len, valence))


def assert_conditions_match(theta2: Antimorphism, v: Word,
                            max_factor_len=None) -> None:
    rep = richness_conditions_check(theta2, v, max_factor_len)
    top = rep.max_factor_len
    expected = window_condition_i(theta2, v, top)
    assert radius_table_condition_i(theta2, v, top) == expected
    # the defect-0 shortcut skips the table; the table itself is compared too
    assert _mirror_bounded_witnesses(theta2, v, top) == expected
    assert rep.condition_i == (not expected)
    assert rep.condition_i_witnesses == tuple(expected[:8])
    assert (rep.condition_ii, rep.condition_ii_witness) == \
        every_letter_condition_ii(theta2, v)


def derived_words(n: int):
    # the theorem 3 derived words of the three decompose-mix theorem3 inputs
    ab, abc = Alphabet(("a", "b")), Alphabet(("a", "b", "c"))
    for letters, pairs, seed, period in (
            (ab, [("a", "b")], "", "ab"),
            (abc, [("a", "b"), ("c", "c")], "", "abc"),
            (ab, [("a", "a"), ("b", "b")], "ab", "ab")):
        theta = Antimorphism.from_pairs(letters, pairs)
        src = ClosureSource(
            theta, Word.from_text(letters, seed),
            DirectiveSequence.parse(letters, "", period))
        yield _bispecial_coding(theta, src.prefix(n))[1]


@pytest.mark.parametrize("coding", list(derived_words(4000)),
                         ids=["exchange", "mixed3", "seeded_rev"])
def test_derived_words_match_oracles(coding):
    v, m = coding.v_prefix, coding.m
    for max_len, valence in ((default_safe_length(len(v)), m), (64, m),
                             (64, m + 1)):
        assert_ar_matches(v, max_len, valence)
    assert arnoux_rauzy_check(v, default_safe_length(len(v)), m).ok
    assert_valences_match(v.symbols, 64)
    k = len(v.alphabet)
    for theta in every_involution(k):
        assert_conditions_match(Antimorphism(v.alphabet, theta.pairing), v)


@pytest.mark.parametrize("name, theta, word", list(corpus(2000)),
                         ids=[name for name, _, _ in corpus(0)])
def test_corpus_words_match_oracles(name, theta, word):
    assert_ar_matches(word, 64, len(word.alphabet))
    assert_valences_match(word.symbols, 64)
    assert_conditions_match(theta, word, 64)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_words_match_oracles(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    if data.draw(st.booleans()):
        word = random_word(rng, theta, data.draw(st.integers(1, 60)))
    else:
        # closure words pass the Arnoux-Rauzy test at some lengths
        d = DirectiveSequence(random_word(rng, theta, data.draw(st.integers(0, 3))),
                              random_word(rng, theta, data.draw(st.integers(1, 4))))
        seed = random_word(rng, theta, data.draw(st.integers(0, 3)))
        word = ClosureSource(theta, seed, d).prefix(
            data.draw(st.integers(1, 300)))
    assert_ar_matches(word, data.draw(st.integers(1, len(word))),
                      data.draw(st.integers(1, 4)))
    assert_valences_match(word.symbols, min(len(word), 64))
    assert_conditions_match(theta, word, data.draw(st.integers(1, len(word) + 5)))


def test_tuple_path_matches_oracles():
    # over more than 256 letters the table sorts code points above 255 and
    # the oracles slice tuples
    rng = random.Random(12)
    ab = Alphabet(tuple(f"x{i}" for i in range(300)))
    for trial in range(60):
        pairing = list(range(300))
        if trial % 2:
            pairing[1], pairing[299] = 299, 1
        theta = Antimorphism(ab, tuple(pairing))
        word = Word(ab, tuple(rng.choice((0, 1, 150, 299))
                              for _ in range(rng.randint(1, 60))))
        assert_ar_matches(word, rng.randint(1, len(word)), rng.randint(1, 4))
        assert_valences_match(word.symbols, len(word))
        assert_conditions_match(theta, word, rng.randint(1, len(word) + 5))


def segment_words(theta: Antimorphism):
    # every word over 1-4 letters up to 12, 11, 7 and 6 letters
    k = len(theta.alphabet)
    for length in range(1, (12, 11, 7, 6)[k - 1] + 1):
        for sym in itertools.product(range(k), repeat=length):
            yield Word(theta.alphabet, sym)


def two_pair_involutions():
    # the three involutions of 4 letters exchanging two pairs: a larger a
    # often fails condition (ii) first, and the smaller failing a is reported
    abcd = Alphabet(tuple("abcd"))
    for pairing in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
        yield Antimorphism(abcd, pairing)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_short_words_match_oracles(k):
    for theta in every_involution(k) if k < 4 else two_pair_involutions():
        for word in segment_words(theta):
            # a short sort key, and lengths past |v|
            for top in (2, len(word) + 4):
                expected = radius_table_condition_i(theta, word, top)
                assert window_condition_i(theta, word, top) == expected
                assert _mirror_bounded_witnesses(theta, word, top) == expected
            rep = richness_conditions_check(theta, word, 1)
            assert (rep.condition_ii, rep.condition_ii_witness) == \
                every_letter_condition_ii(theta, word)


def test_path_codings_match_oracles():
    # the theorem 1 recodings of the corpus words, as decompose --method path
    for name, theta, word in corpus(4000):
        coding = theorem1_decompose(theta, word, 1)
        v, theta2 = coding.v_prefix, coding.theta2
        top = min(len(v) // 2, 64)
        expected = radius_table_condition_i(theta2, v, top)
        assert _mirror_bounded_witnesses(theta2, v, top) == expected, name
        assert window_condition_i(theta2, v, top) == expected, name


def test_segments_longer_than_the_sort_key():
    # the table sorts suffixes by their first 2 * max_factor_len letters, so
    # a segment longer than that is cut once per occurrence
    abc = Alphabet(("a", "b", "c"))
    big = Alphabet(tuple(f"x{i}" for i in range(300)))
    swap3 = Antimorphism.from_pairs(abc, [("a", "b"), ("c", "c")])
    swap_big = Antimorphism(big, tuple([299] + list(range(1, 299)) + [0]))
    words = [w(abc, "b" + "a" * 300 + "b"), w(abc, "c" + "a" * 300 + "c"),
             w(abc, ("c" + "a" * 150) * 4 + "c"),
             w(abc, ("c" + "a" * 40 + "c" + "b" * 40) * 3 + "cab"),
             Word(big, (5,) + (0,) * 200 + (5,) + (299,) * 200 + (5,))]
    rng = random.Random(8)
    words += [Word(abc, tuple(rng.choice((0, 0, 0, 0, 1, 2))
                              for _ in range(rng.randint(50, 200))))
              for _ in range(40)]
    long_witnesses = 0
    for word in words:
        thetas = [Antimorphism.reversal(word.alphabet)]
        thetas.append(swap3 if word.alphabet == abc else swap_big)
        for theta in thetas:
            for top in (1, 2, 3, 5):
                expected = radius_table_condition_i(theta, word, top)
                assert _mirror_bounded_witnesses(theta, word, top) == expected
                assert window_condition_i(theta, word, top) == expected
                long_witnesses += sum(len(u) > 2 * top for u in expected)
    assert long_witnesses > 0


def brute_radii(pairing, seq) -> list[int]:
    n = len(seq)
    radii = []
    for c in range(2 * n + 1):
        best = -1 if c % 2 else 0
        for s in range(c // 2 + 1):
            e = c - s
            if e <= n and all(seq[s + j] == pairing[seq[e - 1 - j]]
                              for j in range(e - s)):
                best = e - s
                break
        radii.append(best)
    return radii


def test_radius_table_matches_brute_force():
    rng = random.Random(3)
    odd_unfixed = 0
    for k in (1, 2, 3):
        for theta in every_involution(k):
            pair = theta.pairing
            words = [sym for length in range(7)
                     for sym in itertools.product(range(k), repeat=length)]
            words += [tuple(rng.randrange(k) for _ in range(rng.randint(7, 40)))
                      for _ in range(150)]
            for sym in words:
                expected = brute_radii(pair, sym)
                assert theta_pal_radii(pair, sym) == expected
                assert theta_pal_radii(pair, bytes(sym)) == expected
                odd_unfixed += sum(1 for i, a in enumerate(sym)
                                   if pair[a] != a and expected[2 * i + 1] == -1)
    # odd segments centred on a letter a != Theta(a) were among them
    assert odd_unfixed > 0


def test_arnoux_rauzy_check_builds_one_automaton(monkeypatch, ab):
    real = palrich.rauzy.special_extensions
    calls: list[int] = []

    def counted(sym, n):
        calls.append(n)
        return real(sym, n)
    monkeypatch.setattr(palrich.rauzy, "special_extensions", counted)
    assert not hasattr(palrich.generators, "special_extensions")
    builds: list = []
    init = _SuffixAutomaton.__init__

    def counting_init(self, symbols):
        builds.append(symbols)
        init(self, symbols)
    monkeypatch.setattr(_SuffixAutomaton, "__init__", counting_init)
    cases = [(fibonacci_source().prefix(3000), 20, 2),
             (ThueMorseSource().prefix(3000), 20, 2),
             (w(ab, "aaabbb"), 6, 2), (w(ab, "aaba"), 6, 2),
             (w(ab, "abaababaab"), 6, 3)]
    for word, max_len, valence in cases:
        builds.clear()
        arnoux_rauzy_check(word, max_len, valence)
        assert calls == []
        assert len(builds) == 1
