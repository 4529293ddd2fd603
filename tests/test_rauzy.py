import pytest

from palrich.core import Alphabet, Antimorphism, InputError, Word
from palrich.complexity import complexity_table
from palrich.rauzy import (
    build_graph,
    check_proposition1,
    special_factors,
)
from palrich.decompose import theorem1_decompose
from palrich.generators import fibonacci_source, periodic_source, thue_morse_source
from conftest import w
from oracles import apply_antimorphism


def test_special_factors_fibonacci(tr, ab):
    fib = fibonacci_source().prefix(2000)
    spec = special_factors(fib, 2)
    assert {x.text for x in spec.left_special} == {"ab"}
    assert {x.text for x in spec.right_special} == {"ba"}
    assert spec.bispecial == frozenset()
    spec1 = special_factors(fib, 1)
    assert {x.text for x in spec1.left_special} == {"a"}
    assert {x.text for x in spec1.right_special} == {"a"}
    assert {x.text for x in spec1.bispecial} == {"a"}


def test_simple_paths_fibonacci(ab, tr):
    # the n-simple paths are the edges of the graph, each paired with its
    # reversal; on Fibonacci every path is a palindrome
    fib = fibonacci_source().prefix(2000)

    def paths(n):
        return {Word(ab, e).text
                for edge in build_graph(tr, fib, n).edges for e in edge.words}

    assert paths(1) == {"aa", "aba"}
    assert paths(2) == {"aba", "baab", "bab"}
    for p in paths(2):
        assert p[:2] in {"ab", "ba"}
        assert p[-2:] in {"ab", "ba"}


def test_special_positions_sorted(ab, tr):
    fib = fibonacci_source().prefix(300)
    coding = theorem1_decompose(tr, fib, 2)
    pos = list(coding.occurrence_indices)
    assert coding.n == 2
    assert pos == sorted(pos)
    sym = fib.symbols
    assert all(sym[i:i + 2] in {(0, 1), (1, 0)} for i in pos)


def test_fibonacci_graph_n1_is_rich_shape(tr, ab):
    fib = fibonacci_source().prefix(2000)
    g = build_graph(tr, fib, 1)
    assert len(g.vertices) == 1
    assert len(g.edges) == 2
    assert all(e.is_loop for e in g.edges)
    res = check_proposition1(g, tr)
    assert res.loops_palindromic and res.tree_after_loop_removal
    assert res.holds


def test_thue_morse_graph_matches_gap(tr, ab):
    tm = thue_morse_source().prefix(4000)
    table = complexity_table(tr, tm, 6)
    for n in range(1, 7):
        g = build_graph(tr, tm, n)
        assert check_proposition1(g, tr).holds == (table.t(n) == 0)
    # the first failing length fails through the tree condition
    res3 = check_proposition1(build_graph(tr, tm, 3), tr)
    assert res3.loops_palindromic
    assert not res3.tree_after_loop_removal


def test_graph_vertices_closed_under_theta(swap, ab):
    word = periodic_source(w(ab, "abab")).prefix(400)
    g = build_graph(swap, word, 2)
    pair = swap.pairing
    for v in g.vertices:
        x, y = v
        assert tuple(pair[s] for s in reversed(x)) == y or \
            tuple(pair[s] for s in reversed(x)) == x


def test_edge_words_are_theta_pairs(tr, ab):
    tm = thue_morse_source().prefix(1500)
    g = build_graph(tr, tm, 3)
    for e in g.edges:
        x, y = e.words
        img = apply_antimorphism(tr, Word(ab, x)).symbols
        assert img in (x, y)


def test_empty_graph_passes(tr, ab):
    # a long unary run has no special factors at length 2
    g = build_graph(tr, w(ab, "a" * 50), 2)
    assert not g.vertices and not g.edges
    assert check_proposition1(g, tr).holds


@pytest.mark.parametrize("n", [0, -1])
def test_build_graph_rejects_n_below_1(tr, ab, n):
    # at n = 0 a path's end e[-0:] is the whole path, not a vertex, and
    # check_proposition1 used to fail with a KeyError on such a graph
    with pytest.raises(InputError, match=f"length {n} out of range"):
        build_graph(tr, w(ab, "ab"), n)


def test_dot_output_deterministic(tr, ab):
    fib = fibonacci_source().prefix(800)
    g1 = build_graph(tr, fib, 2)
    g2 = build_graph(tr, fib, 2)
    dot = g1.to_dot()
    assert dot == g2.to_dot()
    assert dot.startswith("graph rauzy {")
    assert dot.rstrip().endswith("}")
    assert 'label="ab|ba"' in dot


def test_multitoken_labels_use_spaces():
    alpha = Alphabet(("[0]", "[1]"))
    th = Antimorphism.reversal(alpha)
    word = Word(alpha, (0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0))
    dot = build_graph(th, word, 1).to_dot()
    assert "[0] [1]" in dot or "[1] [0]" in dot
