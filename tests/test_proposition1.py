"""Proposition 1 read in one union-find pass over the edges, against the
depth-first tree test it replaced (``oracles.dfs_check_proposition1``), and
the Theta-palindrome test ``theta.image(x) == x`` against the letter-by-letter
one.

The graph of a word is always connected: consecutive occurrences of special
factors are joined by an edge, and every vertex occurs.  So words fail the
tree test only by a cycle; a second component, alone or with a cycle, is
tried on graphs built directly.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from palrich.core import Alphabet, Antimorphism, Word
from palrich.rauzy import (
    GraphEdge,
    SuperReducedRauzyGraph,
    build_graph,
    check_proposition1,
)
from conftest import (
    corpus,
    every_involution,
    near_periodic,
    random_involution,
    random_word,
)
from oracles import (
    dfs_check_proposition1,
    proposition1_holds,
    symbols_are_theta_palindrome,
)


def assert_same(g: SuperReducedRauzyGraph, theta: Antimorphism):
    got = check_proposition1(g, theta)
    assert got == dfs_check_proposition1(g, theta)
    return got


def failure(g: SuperReducedRauzyGraph) -> tuple[bool, bool]:
    """(has a cycle, has a second component) after loop removal, from the
    component count c: an acyclic graph has |V| - c non-loop edges."""
    root = {v: v for v in g.vertices}
    non_loops = [e.endpoints for e in g.edges if e.endpoints[0] != e.endpoints[1]]
    for _ in g.vertices:    # relax until every vertex has its component's least
        for a, b in non_loops:
            root[a] = root[b] = min(root[a], root[b])
    c = len(set(root.values()))
    return len(non_loops) > len(g.vertices) - c, c > 1


def test_every_short_word_at_every_length():
    # every word over 1, 2 and 3 letters up to 10, 10 and 7 letters, under
    # every involution, at every n from 1 to its length
    fails = 0
    for k, top in ((1, 10), (2, 10), (3, 7)):
        for theta in every_involution(k):
            for length in range(1, top + 1):
                for sym in itertools.product(range(k), repeat=length):
                    word = Word(theta.alphabet, sym)
                    for n in range(1, length + 1):
                        fails += not proposition1_holds(
                            assert_same(build_graph(theta, word, n), theta))
    assert fails > 1000


@pytest.mark.parametrize("name, theta, word", list(corpus(4000)),
                         ids=[name for name, _, _ in corpus(0)])
def test_corpus_up_to_64(name, theta, word):
    failing = [n for n in range(1, 65)
               if not proposition1_holds(assert_same(build_graph(theta, word, n), theta))]
    # the rich words pass at every n; thue_morse fails from n = 3 on, and
    # the almost rich Theta-standard words without seed at n = 1 and 2
    if name in ("fibonacci", "tribonacci", "ts_seeded_rev"):
        assert failing == []
    elif name == "thue_morse":
        assert failing[0] == 3 and len(failing) > 40
    else:
        assert failing == [1, 2]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_and_near_periodic_words(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    make = random_word if data.draw(st.booleans()) else near_periodic
    word = make(rng, theta, data.draw(st.integers(1, 200)))
    for n in range(1, min(len(word), 40) + 1):
        g = build_graph(theta, word, n)
        assert_same(g, theta)
        assert not failure(g)[1]


def synthetic_graph(rng: random.Random, theta: Antimorphism, vertices: int,
                    edges: int) -> SuperReducedRauzyGraph:
    # vertices named by one letter pair each; an edge is a random word with
    # its Theta-image, between two random vertices (a loop when they agree)
    verts = [((i,), (i,)) for i in range(vertices)]
    k = len(theta.alphabet)
    out = []
    for _ in range(edges):
        e = tuple(rng.randrange(k) for _ in range(rng.randint(1, 4)))
        if rng.random() < 0.3:
            e = e + theta.image(e)
        words = tuple(sorted((e, theta.image(e))))
        ends = tuple(sorted(rng.choice(verts) for _ in range(2)))
        out.append(GraphEdge(words=words, endpoints=ends))
    return SuperReducedRauzyGraph(n=1, alphabet=theta.alphabet,
                                  vertices=frozenset(verts), edges=tuple(out))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_synthetic_graphs(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 3)))
    vertices = data.draw(st.integers(0, 7))
    edges = data.draw(st.integers(0, 9)) if vertices else 0
    g = synthetic_graph(rng, theta, vertices, edges)
    got = assert_same(g, theta)
    assert got.tree_after_loop_removal == (failure(g) == (False, False))


def test_synthetic_graphs_fail_every_way():
    # a cycle, a second component, both, and trees, each met and agreed on
    rng = random.Random(3)
    seen = set()
    for _ in range(2000):
        theta = random_involution(rng, rng.randint(1, 3))
        vertices = rng.randint(1, 6)
        g = synthetic_graph(rng, theta, vertices, rng.randint(0, 8))
        assert_same(g, theta)
        seen.add(failure(g))
    assert seen == {(False, False), (True, False), (False, True), (True, True)}


def test_word_graphs_fail_by_a_cycle():
    # aabbbab at n = 2 (reversal): the graph is connected and has a cycle
    ab = Alphabet(("a", "b"))
    theta = Antimorphism.reversal(ab)
    g = build_graph(theta, Word.from_text(ab, "aabbbab"), 2)
    assert failure(g) == (True, False)
    assert not assert_same(g, theta).tree_after_loop_removal


def test_theta_palindrome_by_image():
    # theta.image(x) == x against the letter-by-letter test, on every word
    # over 1, 2 and 3 letters up to 10, 10 and 7 letters
    palindromes = 0
    for k, top in ((1, 10), (2, 10), (3, 7)):
        for theta in every_involution(k):
            for length in range(top + 1):
                for sym in itertools.product(range(k), repeat=length):
                    is_pal = theta.image(sym) == sym
                    assert is_pal == symbols_are_theta_palindrome(theta.pairing, sym)
                    palindromes += is_pal
    assert palindromes > 100
