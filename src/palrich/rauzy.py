"""Special factors, n-simple paths and the super reduced Rauzy graph.

Vertices are unordered pairs (w, Theta(w)) over left- or right-special
factors of length n; edges are unordered pairs (e, Theta(e)) of n-simple
paths.  Loops and multi-edges are allowed.  The richness criterion checked
here: the gap T(n) vanishes exactly when every loop is a Theta-palindrome
and the graph becomes a tree once loops are removed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    Antimorphism,
    InputError,
    Word,
    segment_coding,
    symbols_are_theta_palindrome,
)


@dataclass(frozen=True)
class SpecialFactors:
    n: int
    left_special: frozenset[Word]
    right_special: frozenset[Word]

    @property
    def bispecial(self) -> frozenset[Word]:
        return self.left_special & self.right_special

    @property
    def special(self) -> frozenset[Word]:
        return self.left_special | self.right_special


@dataclass(frozen=True)
class SimplePath:
    """Factor whose only special length-n factors are its ends."""

    word: Word
    n: int

    @property
    def begin(self) -> Word:
        return self.word.factor(0, self.n)

    @property
    def end(self) -> Word:
        return self.word.factor(len(self.word) - self.n, len(self.word))


def special_extensions(sym: tuple, n: int) -> tuple[dict, dict]:
    """Left- and right-special length-n factors of ``sym`` (as tuples), each
    mapped to its set of extension letters (at least two)."""
    left: dict[tuple, set[int]] = {}
    right: dict[tuple, set[int]] = {}
    for i in range(len(sym) - n + 1):
        w = sym[i:i + n]
        if i > 0:
            left.setdefault(w, set()).add(sym[i - 1])
        if i + n < len(sym):
            right.setdefault(w, set()).add(sym[i + n])
    return ({w: ext for w, ext in left.items() if len(ext) >= 2},
            {w: ext for w, ext in right.items() if len(ext) >= 2})


def special_factors(prefix: Word, n: int) -> SpecialFactors:
    """Exact LS/RS sets of the prefix at length n (extension count >= 2)."""
    if not 0 <= n <= len(prefix):
        raise InputError(f"length {n} out of range")
    left, right = special_extensions(prefix.symbols, n)
    ab = prefix.alphabet
    return SpecialFactors(n=n, left_special=frozenset(Word(ab, w) for w in left),
                          right_special=frozenset(Word(ab, w) for w in right))


def _positions(sym: tuple, n: int, factors) -> list[int]:
    return [i for i in range(len(sym) - n + 1) if sym[i:i + n] in factors]


def _special_tuples(sym: tuple, n: int) -> set[tuple]:
    """The LS-or-RS factors of length n, as tuples: ``special_factors``
    without the ``Word``s."""
    if not 0 <= n <= len(sym):
        raise InputError(f"length {n} out of range")
    left, right = special_extensions(sym, n)
    return left.keys() | right.keys()


def simple_paths(prefix: Word, n: int) -> list[SimplePath]:
    """All distinct n-simple paths witnessed in the prefix.

    Found between consecutive occurrences of special factors; empty (with the
    caller expected to treat the input as eventually periodic) when no special
    factor of length n exists.
    """
    sym = prefix.symbols
    positions = _positions(sym, n, _special_tuples(sym, n))
    paths, _ = segment_coding(sym, positions, n)
    return [SimplePath(word=Word(prefix.alphabet, w), n=n) for w in paths]


def _canon_pair(x: tuple, y: tuple) -> tuple[tuple, tuple]:
    return (x, y) if x <= y else (y, x)


@dataclass(frozen=True)
class GraphEdge:
    words: tuple[tuple, tuple]     # canonical (e, Theta(e)) as symbol tuples
    endpoints: tuple[tuple[tuple, tuple], tuple[tuple, tuple]]  # canonical vertices

    @property
    def is_loop(self) -> bool:
        return self.endpoints[0] == self.endpoints[1]


@dataclass(frozen=True)
class SuperReducedRauzyGraph:
    n: int
    alphabet_letters: tuple[str, ...]
    vertices: frozenset[tuple[tuple, tuple]]
    edges: tuple[GraphEdge, ...]

    @property
    def loop_edges(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.is_loop)

    @property
    def non_loop_edges(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if not e.is_loop)

    def _label(self, sym: tuple) -> str:
        toks = [self.alphabet_letters[s] for s in sym]
        joiner = "" if all(len(t) == 1 for t in self.alphabet_letters) else " "
        return joiner.join(toks)

    def to_dot(self) -> str:
        """Deterministic DOT rendering; vertices labeled "w|theta(w)"."""
        verts = sorted(self.vertices)
        names = {v: f"v{i}" for i, v in enumerate(verts)}
        lines = ["graph rauzy {"]
        for v in verts:
            label = f"{self._label(v[0])}|{self._label(v[1])}"
            lines.append(f'  {names[v]} [label="{label}"];')
        for e in sorted(self.edges, key=lambda e: (e.endpoints, e.words)):
            a, b = e.endpoints
            w1, w2 = e.words
            label = self._label(w1) if w1 == w2 else f"{self._label(w1)}|{self._label(w2)}"
            lines.append(f'  {names[a]} -- {names[b]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_graph(theta: Antimorphism, prefix: Word, n: int) -> SuperReducedRauzyGraph:
    """Super reduced Rauzy graph of the prefix at length n.

    Each distinct simple path contributes one edge jointly with its
    Theta-image; vertex and edge pairs are canonicalized so equality is
    well-defined.
    """
    if theta.alphabet != prefix.alphabet:
        raise InputError("alphabet mismatch")
    pair = theta.pairing

    def timage(sym: tuple) -> tuple:
        return tuple(pair[x] for x in reversed(sym))

    sym = prefix.symbols
    specials = _special_tuples(sym, n)
    positions = _positions(sym, n, specials)
    vertices = frozenset(_canon_pair(w, timage(w)) for w in specials)
    edges: list[GraphEdge] = []
    seen: set[tuple] = set()
    for e in segment_coding(sym, positions, n)[0]:
        te = timage(e)
        key = _canon_pair(e, te)
        if key in seen:
            continue
        seen.add(key)
        v1 = _canon_pair(e[:n], timage(e[:n]))
        v2 = _canon_pair(e[-n:], timage(e[-n:]))
        edges.append(GraphEdge(words=key, endpoints=_canon_pair(v1, v2)))
    edges.sort(key=lambda e: (e.endpoints, e.words))
    return SuperReducedRauzyGraph(n=n, alphabet_letters=prefix.alphabet.letters,
                                  vertices=vertices, edges=tuple(edges))


@dataclass(frozen=True)
class Proposition1Result:
    loops_palindromic: bool
    tree_after_loop_removal: bool

    @property
    def holds(self) -> bool:
        return self.loops_palindromic and self.tree_after_loop_removal


def check_proposition1(g: SuperReducedRauzyGraph,
                       theta: Antimorphism) -> Proposition1Result:
    """Loop palindromicity plus tree-after-loop-removal; empty graph passes."""
    pair = theta.pairing
    loops_ok = all(
        symbols_are_theta_palindrome(pair, e.words[0]) for e in g.loop_edges
    )
    verts = g.vertices
    non_loops = g.non_loop_edges
    if not verts:
        tree_ok = len(non_loops) == 0
    else:
        if len(non_loops) != len(verts) - 1:
            tree_ok = False
        else:
            adj: dict[tuple, list[tuple]] = {v: [] for v in verts}
            for e in non_loops:
                a, b = e.endpoints
                adj[a].append(b)
                adj[b].append(a)
            start = next(iter(verts))
            stack = [start]
            reached = {start}
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if u not in reached:
                        reached.add(u)
                        stack.append(u)
            tree_ok = len(reached) == len(verts)
    return Proposition1Result(loops_palindromic=loops_ok,
                              tree_after_loop_removal=tree_ok)
