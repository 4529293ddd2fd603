"""The flat suffix automaton and the Rauzy extension tables against the
dict-per-state automaton and the ``setdefault`` tables they replaced
(``tests/oracles.py``): every column and edge, C(n), the shortest absent
factor and the special valences, and the simple-path cut's windows, special
factors, positions, paths and coding, on both sides of the alphabet size
where the flat edge table gives way to a dict."""
import gc
import itertools
import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from palrich.complexity import _SuffixAutomaton
from palrich.core import Alphabet, Antimorphism
from palrich.generators import fibonacci_source
from palrich.palindromes import FLAT_EDGE_LETTERS, _Edges
from palrich.rauzy import _extension_tables, simple_path_cut
from conftest import (
    corpus,
    every_involution,
    near_periodic,
    random_involution,
    random_word,
)
from oracles import (
    DictSuffixAutomaton,
    setdefault_extension_tables,
    setdefault_simple_path_cut,
)


def assert_same_automaton(symbols: tuple, *readings) -> _SuffixAutomaton:
    sam, ref = _SuffixAutomaton(symbols), DictSuffixAutomaton(symbols)
    k = max(symbols, default=-1) + 1
    assert sam.k == k
    assert sam.length == ref.length
    assert sam.link == ref.link
    if k <= FLAT_EDGE_LETTERS:
        # one k-entry row per state, 0 where there is no edge
        assert type(sam.next) is list
        assert len(sam.next) == len(sam.length) * k
        edges = {key: target for key, target in enumerate(sam.next) if target}
    else:
        assert isinstance(sam.next, _Edges)
        edges = dict(sam.next)
    assert edges == {v * k + a: target for v, row in enumerate(ref.next)
                     for a, target in row.items()}
    assert sam.complexity() == ref.complexity()
    top = len(symbols)
    assert sam.special_valences(top) == ref.special_valences(top)
    for other in readings:
        assert sam.shortest_absent(other) == ref.shortest_absent(other)
    return sam


def assert_same_cut(sym: tuple, n: int) -> None:
    tables = _extension_tables(sym, n)
    expected = setdefault_extension_tables(sym, n)
    assert tables == expected
    # the windows come in order of first occurrence, as the oracle's
    assert [list(t) for t in tables] == [list(t) for t in expected]
    assert all(type(t) is dict for t in tables)
    windows, specials, positions, cut = simple_path_cut(sym, n)
    ref_windows, ref_specials, ref_positions, ref_cut = \
        setdefault_simple_path_cut(sym, n)
    assert list(windows) == list(ref_windows)
    assert specials == ref_specials
    assert positions == ref_positions
    assert cut == ref_cut


def test_every_short_word_matches_oracles():
    # every word over 1, 2 and 3 letters up to 10, 10 and 7 letters, read
    # against its image under every involution (whose letters can lie past
    # the word's largest) and its reversal, cut at every n
    for k, top in ((1, 10), (2, 10), (3, 7)):
        images = [theta.image for theta in every_involution(k)]
        for m in range(top + 1):
            for symbols in itertools.product(range(k), repeat=m):
                assert_same_automaton(symbols, symbols[::-1],
                                      *(image(symbols) for image in images))
                for n in range(1, m + 1):
                    assert_same_cut(symbols, n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_and_near_periodic_words(data):
    rng = data.draw(st.randoms(use_true_random=False))
    # up to 9 letters: 8 and 9 sit on either side of FLAT_EDGE_LETTERS
    theta = random_involution(rng, data.draw(st.integers(1, 9)))
    make = random_word if data.draw(st.booleans()) else near_periodic
    word = make(rng, theta, data.draw(st.integers(1, 300)))
    sym = word.symbols
    other = make(rng, theta, data.draw(st.integers(1, 300))).symbols
    assert_same_automaton(sym, sym[::-1], theta.image(sym), other)
    for n in sorted({*range(1, min(len(sym), 12) + 1),
                     data.draw(st.integers(1, len(sym)))}):
        assert_same_cut(sym, n)


def test_corpus_matches_oracles():
    for _, theta, word in corpus(4000):
        sym = word.symbols
        assert_same_automaton(sym, sym[::-1], theta.image(sym))
        for n in (*range(1, 17), 32, 64, 250):
            assert_same_cut(sym, n)


def test_large_alphabet_matches_oracles():
    # letter + state * 300 keys the edges in the dict: no two may collide
    ab = Alphabet(tuple(f"x{i}" for i in range(300)))
    pairing = list(range(300))
    pairing[1], pairing[299] = 299, 1
    theta = Antimorphism(ab, tuple(pairing))
    rng = random.Random(32)
    for _ in range(40):
        sym = tuple(rng.choice((0, 1, 150, 299)) for _ in range(rng.randint(1, 120)))
        sam = assert_same_automaton(sym, sym[::-1], theta.image(sym))
        assert isinstance(sam.next, _Edges)
        for n in range(1, min(len(sym), 8) + 1):
            assert_same_cut(sym, n)


def test_edge_table_layout():
    fib = fibonacci_source().prefix(4000).symbols
    for letters in ((0, 1), (0, FLAT_EDGE_LETTERS - 1)):
        sam = _SuffixAutomaton(tuple(letters[a] for a in fib))
        assert sam.k == letters[1] + 1
        assert type(sam.next) is list
        assert len(sam.next) == len(sam.length) * sam.k
    # the fibonacci prefix spelled with t55296 and t69999 out of 70000
    # tokens: a flat table would take (2 * 4000 + 1) * 70000 entries
    spelled = tuple((55296, 69999)[a] for a in fib)
    sam = _SuffixAutomaton(spelled)
    assert sam.k == 70000
    assert isinstance(sam.next, _Edges)
    # the dict holds only the edges
    assert len(sam.next) == sum(map(len, DictSuffixAutomaton(spelled).next))
    assert sam.complexity() == _SuffixAutomaton(fib).complexity()


def test_automaton_holds_at_most_180_bytes_per_letter():
    for name, _, word in corpus(65536):
        gc.collect()
        tracemalloc.start()
        try:
            sam = _SuffixAutomaton(word.symbols)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 180 * len(word), (name, held / len(word))
        del sam
