"""The columnar ``PalIndex`` against ``NodePalIndex``, the one-object-per-node
index it replaced: every column, the edges and the derived queries, on both
sides of the alphabet size where the flat edge table gives way to a dict."""
import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from palrich.core import Alphabet, Antimorphism, InputError
from palrich.generators import fibonacci_source
from palrich.palindromes import FLAT_EDGE_LETTERS, PalIndex
from conftest import corpus, every_involution, random_involution, random_word
from oracles import NodePalIndex


def assert_same_index(cols: PalIndex, nodes: NodePalIndex) -> None:
    k = len(cols.theta.alphabet)
    number = {id(node): v for v, node in enumerate(nodes._nodes)}
    assert cols.length == [node.length for node in nodes._nodes]
    assert cols.link == [number[id(node.link)] for node in nodes._nodes]
    assert cols.first_end == [node.first_end for node in nodes._nodes]
    assert cols.lps_of == [node.lps_of for node in nodes._nodes]
    if k <= FLAT_EDGE_LETTERS:
        # one k-entry row per node, 0 where there is no edge
        assert len(cols._next) == len(cols.length) * k
        edges = {key: child for key, child in enumerate(cols._next) if child}
    else:
        edges = dict(cols._next)
    assert edges == {v * k + a: number[id(child)]
                     for v, node in enumerate(nodes._nodes)
                     for a, child in node.next.items()}
    assert cols.lps_length == nodes.lps_length
    assert cols.pal_count == nodes.pal_count
    assert cols.palindrome_spans() == nodes.palindrome_spans()


def compare_prefixes(theta, symbols, cuts) -> None:
    # the index of each prefix symbols[:j], j a cut or the whole word,
    # against the oracle fed letter by letter up to j
    nodes = NodePalIndex(theta)
    for j in sorted({*cuts, len(symbols)}):
        nodes.extend(symbols[len(nodes._sym):j])
        assert_same_index(PalIndex(theta, symbols[:j]), nodes)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_prefixes_match_node_index_random(data):
    rng = data.draw(st.randoms(use_true_random=False))
    # 8 and 9 letters sit on either side of FLAT_EDGE_LETTERS
    k = data.draw(st.one_of(st.integers(1, 4), st.sampled_from((8, 9))))
    theta = random_involution(rng, k)
    word = random_word(rng, theta, data.draw(st.integers(0, 120)))
    cuts = data.draw(st.lists(st.integers(0, len(word)), max_size=40))
    compare_prefixes(theta, word.symbols, cuts)


def test_every_step_matches_node_index_on_short_words():
    # every word up to the length below is a prefix of one fed here
    for k, n in ((1, 9), (2, 9), (3, 7)):
        for theta in every_involution(k):
            for symbols in itertools.product(range(k), repeat=n):
                compare_prefixes(theta, symbols, range(n))


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
            compare_prefixes(theta, symbols, range(len(symbols)))


@pytest.mark.parametrize("n", [4000, 65536])
def test_corpus_matches_node_index(n):
    for name, theta, word in corpus(n):
        compare_prefixes(theta, word.symbols, [n // 3, n // 3 + 1])


def test_invalid_letter_raises_before_building(tr):
    # the first bad letter is named, as the oracle names it
    for bad in (2, -1):
        with pytest.raises(InputError, match=f"^invalid letter index {bad}$"):
            PalIndex(tr, (0, 1, 1, bad, 0, 5))
        with pytest.raises(InputError, match=f"^invalid letter index {bad}$"):
            NodePalIndex(tr).extend((0, 1, 1, bad, 0, 5))


def traced_bytes(build) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        idx = build()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def node_index(theta, symbols) -> NodePalIndex:
    idx = NodePalIndex(theta)
    idx.extend(symbols)
    return idx


def test_columns_hold_at_most_45_percent_of_node_index_memory(tr):
    # about 140 against 377 bytes per letter on CPython 3.11
    symbols = fibonacci_source().prefix(65536).symbols
    cols = traced_bytes(lambda: PalIndex(tr, symbols))
    nodes = traced_bytes(lambda: node_index(tr, symbols))
    assert cols <= 0.45 * nodes, (cols, nodes)
