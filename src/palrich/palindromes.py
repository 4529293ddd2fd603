"""Distinct Theta-palindromic factors, defect, closure and suffix queries.

``PalIndex`` is an incremental generalized palindromic tree.  A
Theta-palindrome ending with letter ``a`` must begin with ``Theta(a)``, so
the classical suffix-link walk looks for the preceding letter ``Theta(a)``
instead of ``a``, and a length-1 node exists only for letters fixed by Theta.
Every palindrome fact about a word is read from one index, ``pal_index``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import (
    Antimorphism,
    InputError,
    InvariantError,
    Word,
    _check_same,
    gamma,
)


class _Node:
    __slots__ = ("length", "link", "next", "first_end", "lps_of")

    def __init__(self, length: int):
        self.length = length
        self.link: "_Node" = self  # patched right after construction
        self.next: dict[int, "_Node"] = {}
        self.first_end = -1
        self.lps_of = 0     # non-empty prefixes whose lps this node is


class PalIndex:
    """Incremental index of distinct Theta-palindromic factors.

    Single-writer: appends are strictly sequential.  A frozen index is safe
    for concurrent read-only queries.
    """

    def __init__(self, theta: Antimorphism):
        self.theta = theta
        self._pair = theta.pairing
        self._sym: list[int] = []
        self._root_m1 = _Node(-1)
        self._root_0 = _Node(0)
        self._root_0.link = self._root_m1
        self._nodes: list[_Node] = [self._root_m1, self._root_0]
        self._last = self._root_0

    # -- queries --------------------------------------------------------------

    @property
    def pal_count(self) -> int:
        """#PalTheta of the processed prefix, epsilon included."""
        return len(self._nodes) - 1

    @property
    def lps_length(self) -> int:
        return self._last.length

    def lps_word(self) -> Word:
        sym = self._sym
        return Word(self.theta.alphabet,
                    tuple(sym[len(sym) - self._last.length:]))

    def palindrome_spans(self) -> list[tuple[int, int]]:
        """(start, length) of the first occurrence of each distinct non-empty
        Theta-palindromic factor seen, in order of that occurrence's end."""
        return [(node.first_end + 1 - node.length, node.length)
                for node in self._nodes[2:]]

    # -- construction ---------------------------------------------------------

    def _walk(self, node: _Node, pos: int, ta: int, a: int) -> Optional[_Node]:
        sym = self._sym
        while True:
            length = node.length
            if length == -1:
                return node if ta == a else None
            i = pos - length - 1
            if i >= 0 and sym[i] == ta:
                return node
            node = node.link

    def append(self, a: int) -> None:
        if not 0 <= a < len(self.theta.alphabet):
            raise InputError(f"invalid letter index {a}")
        sym = self._sym
        sym.append(a)
        pos = len(sym) - 1
        ta = self._pair[a]

        found = self._walk(self._last, pos, ta, a)
        if found is None:
            self._last = self._root_0
        else:
            node = found.next.get(a)
            if node is not None:
                self._last = node
            else:
                node = _Node(found.length + 2)
                if node.length == 1:
                    node.link = self._root_0
                else:
                    up = self._walk(found.link, pos, ta, a)
                    node.link = self._root_0 if up is None else up.next[a]
                node.first_end = pos
                found.next[a] = node
                self._nodes.append(node)
                self._last = node
        self._last.lps_of += 1

    def extend(self, symbols) -> None:
        for s in symbols:
            self.append(s)


@dataclass(frozen=True)
class DefectProfile:
    """Per-prefix defect values d_0..d_|w| with the matching gamma/pal counts."""

    word: Word
    values: tuple[int, ...]
    gammas: tuple[int, ...]
    pal_counts: tuple[int, ...]

    def final(self) -> int:
        return self.values[-1]

    def to_csv(self) -> str:
        lines = ["prefix_length,defect,gamma,pal_count"]
        for k, (d, g, p) in enumerate(zip(self.values, self.gammas, self.pal_counts)):
            lines.append(f"{k},{d},{g},{p}")
        return "\n".join(lines) + "\n"


# --- derived operations ------------------------------------------------------

@lru_cache(maxsize=1)
def pal_index(theta: Antimorphism, symbols: tuple) -> PalIndex:
    """The PalIndex of ``symbols``, shared by every analysis of one word.

    Callers only read it.  One entry suffices: every multi-analysis caller
    asks about one word several times in a row.
    """
    idx = PalIndex(theta)
    idx.extend(symbols)
    return idx


def pal_prefix_lengths(theta: Antimorphism, symbols: tuple) -> list[int]:
    """Lengths L >= 1, ascending, such that symbols[:L] is a Theta-palindrome:
    the palindromes whose first occurrence starts at 0."""
    return [length for start, length
            in pal_index(theta, symbols).palindrome_spans() if start == 0]


def crw_violation_lengths(theta: Antimorphism, symbols: tuple) -> list[int]:
    """Lengths of the non-empty Theta-palindromes with a non-palindromic
    complete return: the lps (longest Theta-palindromic suffix) of two
    prefixes, i.e. the lps at an occurrence after their first.  If p is
    lps(w[:k]) and occurs earlier, the complete return from its previous
    occurrence to k is a longer suffix of w[:k]: no palindrome.  Conversely,
    let r be the first-ending non-palindromic complete return of p, ending
    at k, and s = lps(w[:k]): |s| < |r| puts Theta(p) = p at the start of s
    inside r, so s = p; |s| = |r| makes r a palindrome; |s| > |r| makes
    Theta(r), a prefix of s, such a return ending earlier.  The roots are left
    out: the lps is empty when a != Theta(a); only non-empty factors count.
    """
    return [node.length for node in pal_index(theta, symbols)._nodes[2:]
            if node.lps_of > 1]


def defect(theta: Antimorphism, w: Word) -> int:
    """Theta-palindromic defect |w| + 1 - gamma - #Pal, via PalIndex."""
    d = len(w) + 1 - gamma(theta, w) - pal_index(theta, w.symbols).pal_count
    if d < 0:
        raise InvariantError(f"negative defect {d}: palindrome count bound violated")
    return d


def defect_profile(theta: Antimorphism, w: Word) -> DefectProfile:
    _check_same(theta, w)
    # #Pal_k counts the palindromes whose first occurrence ends by k
    first_ends = [0] * (len(w) + 1)
    for start, length in pal_index(theta, w.symbols).palindrome_spans():
        first_ends[start + length] += 1
    pair = theta.pairing
    classes: set[int] = set()
    values, gammas, pals = [0], [0], [1]
    for k, s in enumerate(w.symbols, start=1):
        if pair[s] != s:
            classes.add(min(s, pair[s]))
        gammas.append(len(classes))
        pals.append(pals[-1] + first_ends[k])
        values.append(k + 1 - gammas[-1] - pals[-1])
    return DefectProfile(word=w, values=tuple(values), gammas=tuple(gammas),
                         pal_counts=tuple(pals))


def longest_theta_pal_suffix(theta: Antimorphism, w: Word) -> Word:
    _check_same(theta, w)
    return pal_index(theta, w.symbols).lps_word()


def theta_pal_closure(theta: Antimorphism, w: Word) -> Word:
    """Shortest Theta-palindrome having w as a prefix.

    With w = p s, s the longest Theta-palindromic suffix, the closure is
    w Theta(p).
    """
    _check_same(theta, w)
    p_len = len(w) - pal_index(theta, w.symbols).lps_length
    pair = theta.pairing
    tail = tuple(pair[x] for x in reversed(w.symbols[:p_len]))
    return Word(w.alphabet, w.symbols + tail)


def is_rich_finite(theta: Antimorphism, w: Word) -> bool:
    return defect(theta, w) == 0
