"""The columnar ``PalIndex`` against ``NodePalIndex``, the one-object-per-node
index it replaced: every column, the transitions and the derived queries."""
import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from palrich.core import Alphabet, Antimorphism, InputError
from palrich.generators import fibonacci_source
from palrich.palindromes import PalIndex
from conftest import corpus, every_involution, random_involution, random_word
from oracles import NodePalIndex


def assert_same_index(cols: PalIndex, nodes: NodePalIndex) -> None:
    k = len(cols.theta.alphabet)
    number = {id(node): v for v, node in enumerate(nodes._nodes)}
    assert cols.length == [node.length for node in nodes._nodes]
    assert cols.link == [number[id(node.link)] for node in nodes._nodes]
    assert cols.first_end == [node.first_end for node in nodes._nodes]
    assert cols.lps_of == [node.lps_of for node in nodes._nodes]
    assert cols._next == {v * k + a: number[id(child)]
                          for v, node in enumerate(nodes._nodes)
                          for a, child in node.next.items()}
    assert cols.lps_length == nodes.lps_length
    assert cols.pal_count == nodes.pal_count
    assert cols.palindrome_spans() == nodes.palindrome_spans()


def feed_in_chunks(theta, symbols, cuts) -> None:
    # one letter or a longer chunk per extend; compared after each
    cols, nodes = PalIndex(theta), NodePalIndex(theta)
    bounds = [0, *sorted(cuts), len(symbols)]
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = symbols[lo:hi]
        cols.extend(chunk)
        nodes.extend(chunk)
        assert_same_index(cols, nodes)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interleaved_append_extend_match_node_index_random(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    word = random_word(rng, theta, data.draw(st.integers(0, 120)))
    cuts = data.draw(st.lists(st.integers(0, len(word)), max_size=40))
    feed_in_chunks(theta, word.symbols, cuts)


def test_every_step_matches_node_index_on_short_words():
    # every word up to the length below is a prefix of one fed here
    for k, n in ((1, 9), (2, 9), (3, 7)):
        for theta in every_involution(k):
            for symbols in itertools.product(range(k), repeat=n):
                feed_in_chunks(theta, symbols, range(n))


def test_large_alphabet_matches_node_index():
    # letter * 300 + node keys the transitions: no two edges may collide
    ab = Alphabet(tuple(f"x{i}" for i in range(300)))
    pairing = list(range(300))
    pairing[1], pairing[299] = 299, 1
    rng = random.Random(15)
    for theta in (Antimorphism.reversal(ab), Antimorphism(ab, tuple(pairing))):
        for _ in range(20):
            symbols = tuple(rng.choice((0, 1, 150, 299))
                            for _ in range(rng.randint(0, 80)))
            feed_in_chunks(theta, symbols, range(len(symbols)))


@pytest.mark.parametrize("n", [4000, 65536])
def test_corpus_matches_node_index(n):
    for name, theta, word in corpus(n):
        feed_in_chunks(theta, word.symbols, [n // 3, n // 3 + 1])


def test_invalid_letter_raises_after_indexing_the_letters_before_it(tr):
    for bad in (2, -1):
        cols, nodes = PalIndex(tr), NodePalIndex(tr)
        with pytest.raises(InputError, match=f"^invalid letter index {bad}$"):
            cols.extend((0, 1, 1, bad, 0))
        nodes.extend((0, 1, 1))
        assert_same_index(cols, nodes)
        with pytest.raises(InputError, match=f"^invalid letter index {bad}$"):
            cols.extend((bad,))
        assert_same_index(cols, nodes)
        # the index stays usable
        cols.extend((0, 1, 1, 0))
        nodes.extend((0, 1, 1, 0))
        assert_same_index(cols, nodes)


def traced_bytes(cls, theta, symbols) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        idx = cls(theta)
        idx.extend(symbols)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_columns_hold_at_most_60_percent_of_node_index_memory(tr):
    # about 202 against 377 bytes per letter on CPython 3.11
    symbols = fibonacci_source().prefix(65536).symbols
    cols = traced_bytes(PalIndex, tr, symbols)
    nodes = traced_bytes(NodePalIndex, tr, symbols)
    assert cols <= 0.6 * nodes, (cols, nodes)
