"""Special factors, n-simple paths and the super reduced Rauzy graph.

Vertices are unordered pairs (w, Theta(w)) over left- or right-special
factors of length n; edges are unordered pairs (e, Theta(e)) of n-simple
paths.  Loops and multi-edges are allowed.  The richness criterion checked
here: the gap T(n) vanishes exactly when every loop is a Theta-palindrome
and the graph becomes a tree once loops are removed.
"""
from __future__ import annotations

from collections.abc import KeysView

from .core import (
    Alphabet,
    Antimorphism,
    InputError,
    Record,
    Word,
    _check_same,
    segment_coding,
)


class SpecialFactors(Record):
    n: int
    left_special: frozenset[Word]
    right_special: frozenset[Word]


def _extension_tables(sym: tuple, n: int) -> tuple[dict, dict]:
    """Every length-n window of ``sym`` (as a tuple) mapped to the letters
    before it, and every one but possibly the last to the letters after it:
    the first table's keys are all the windows."""
    left: dict[tuple, set[int]] = {sym[:n]: set()}
    right: dict[tuple, set[int]] = {}
    for i in range(len(sym) - n + 1):
        w = sym[i:i + n]
        if i > 0:
            left.setdefault(w, set()).add(sym[i - 1])
        if i + n < len(sym):
            right.setdefault(w, set()).add(sym[i + n])
    return left, right


def special_extensions(sym: tuple, n: int) -> tuple[dict, dict]:
    """Left- and right-special length-n factors of ``sym`` (as tuples), each
    mapped to its set of extension letters (at least two)."""
    return tuple({w: ext for w, ext in table.items() if len(ext) >= 2}
                 for table in _extension_tables(sym, n))


def factor_extensions(sym: tuple, occ, m: int) -> tuple[set, set]:
    """The letters before and after the occurrences ``occ`` of one length-m
    factor of ``sym``: ``special_extensions``' rule read from one occurrence
    list, so the factor is left (right) special when the first (second) set
    has two letters."""
    return ({sym[i - 1] for i in occ if i > 0},
            {sym[i + m] for i in occ if i + m < len(sym)})


def special_factors(prefix: Word, n: int) -> SpecialFactors:
    """Exact LS/RS sets of the prefix at length n (extension count >= 2)."""
    if not 0 <= n <= len(prefix):
        raise InputError(f"length {n} out of range")
    left, right = special_extensions(prefix.symbols, n)
    ab = prefix.alphabet
    return SpecialFactors(n=n, left_special=frozenset(Word.unchecked(ab, w) for w in left),
                          right_special=frozenset(Word.unchecked(ab, w) for w in right))


def simple_path_cut(sym: tuple, n: int) -> tuple[
        KeysView[tuple], set[tuple], list[int], tuple[list[tuple], list[int]]]:
    """The length-n windows of ``sym`` and the LS-or-RS ones among them (as
    tuples), their occurrences, and ``segment_coding``'s cut there: the
    distinct n-simple paths and the coding of ``sym`` over them.  n must be
    at least 1: at n = 0 a path's end ``e[-n:]`` would be the whole path, not
    a vertex."""
    if not 1 <= n <= len(sym):
        raise InputError(f"length {n} out of range")
    left, right = _extension_tables(sym, n)
    specials = {w for table in (left, right) for w, ext in table.items() if len(ext) >= 2}
    positions = [i for i in range(len(sym) - n + 1) if sym[i:i + n] in specials]
    return left.keys(), specials, positions, segment_coding(sym, positions, n)


def _canon_pair(x: tuple, y: tuple) -> tuple[tuple, tuple]:
    return (x, y) if x <= y else (y, x)


class GraphEdge(Record):
    words: tuple[tuple, tuple]     # canonical (e, Theta(e)) as symbol tuples
    endpoints: tuple[tuple[tuple, tuple], tuple[tuple, tuple]]  # canonical vertices

    @property
    def is_loop(self) -> bool:
        return self.endpoints[0] == self.endpoints[1]


class SuperReducedRauzyGraph(Record):
    n: int
    alphabet: Alphabet
    vertices: frozenset[tuple[tuple, tuple]]
    edges: tuple[GraphEdge, ...]

    def to_dot(self) -> str:
        """Deterministic DOT rendering; vertices labeled "w|theta(w)"."""
        spell = self.alphabet.spell
        verts = sorted(self.vertices)
        names = {v: f"v{i}" for i, v in enumerate(verts)}
        lines = ["graph rauzy {"]
        for v in verts:
            label = f"{spell(v[0])}|{spell(v[1])}"
            lines.append(f'  {names[v]} [label="{label}"];')
        for e in sorted(self.edges, key=lambda e: (e.endpoints, e.words)):
            a, b = e.endpoints
            w1, w2 = e.words
            label = spell(w1) if w1 == w2 else f"{spell(w1)}|{spell(w2)}"
            lines.append(f'  {names[a]} -- {names[b]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_graph(theta: Antimorphism, prefix: Word, n: int) -> SuperReducedRauzyGraph:
    """Super reduced Rauzy graph of the prefix at length n.

    Each distinct simple path contributes one edge jointly with its
    Theta-image; vertex and edge pairs are canonicalized so equality is
    well-defined.
    """
    _check_same(theta, prefix)
    timage = theta.image
    _, specials, _, (paths, _) = simple_path_cut(prefix.symbols, n)
    vertices = frozenset(_canon_pair(w, timage(w)) for w in specials)
    edges: list[GraphEdge] = []
    seen: set[tuple] = set()
    for e in paths:
        te = timage(e)
        key = _canon_pair(e, te)
        if key in seen:
            continue
        seen.add(key)
        v1 = _canon_pair(e[:n], timage(e[:n]))
        v2 = _canon_pair(e[-n:], timage(e[-n:]))
        edges.append(GraphEdge(words=key, endpoints=_canon_pair(v1, v2)))
    edges.sort(key=lambda e: (e.endpoints, e.words))
    return SuperReducedRauzyGraph(n=n, alphabet=prefix.alphabet,
                                  vertices=vertices, edges=tuple(edges))


class Proposition1Result(Record):
    loops_palindromic: bool
    tree_after_loop_removal: bool


def check_proposition1(g: SuperReducedRauzyGraph,
                       theta: Antimorphism) -> Proposition1Result:
    """Loop palindromicity plus tree-after-loop-removal; empty graph passes.

    One pass over the edges with a union-find over the vertices: a non-loop
    edge between two vertices already connected closes a cycle, and an
    acyclic graph is a tree when it has at most one component.
    """
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    loops_ok = acyclic = True
    components = len(root)
    for e in g.edges:
        if e.is_loop:
            loops_ok = loops_ok and theta.image(e.words[0]) == e.words[0]
            continue
        a, b = map(find, e.endpoints)
        if a == b:
            acyclic = False
        else:
            root[a] = b
            components -= 1
    return Proposition1Result(loops_palindromic=loops_ok,
                              tree_after_loop_removal=acyclic and components <= 1)
