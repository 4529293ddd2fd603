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
)


class _Node:
    __slots__ = ("length", "link", "next", "first_end")

    def __init__(self, length: int):
        self.length = length
        self.link: "_Node" = self  # patched right after construction
        self.next: dict[int, "_Node"] = {}
        self.first_end = -1


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
        self._pal_count = 1  # epsilon
        self._gamma_pairs: set[tuple[int, int]] = set()
        self._defects: list[int] = [0]

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sym)

    @property
    def pal_count(self) -> int:
        """#PalTheta of the processed prefix, epsilon included."""
        return self._pal_count

    @property
    def gamma(self) -> int:
        return len(self._gamma_pairs)

    @property
    def defect(self) -> int:
        return self._defects[-1]

    @property
    def defect_values(self) -> list[int]:
        """d_k for every prefix length k processed so far."""
        return list(self._defects)

    @property
    def lps_length(self) -> int:
        return self._last.length

    def word_at(self, end: int, length: int) -> Word:
        return Word(self.theta.alphabet,
                    tuple(self._sym[end + 1 - length:end + 1]))

    def lps_word(self) -> Word:
        return self.word_at(len(self._sym) - 1, self._last.length)

    def palindrome_spans(self) -> list[tuple[int, int]]:
        """(start, length) of the first occurrence of each distinct non-empty
        Theta-palindromic factor seen, in order of that occurrence's end."""
        return [(node.first_end + 1 - node.length, node.length)
                for node in self._nodes[2:]]

    def palindrome_symbols(self) -> list[tuple]:
        """Distinct non-empty Theta-palindromic factors seen, as symbol tuples."""
        sym = self._sym
        return [tuple(sym[start:start + length])
                for start, length in self.palindrome_spans()]

    def palindromes(self) -> set[Word]:
        """All distinct Theta-palindromic factors seen, epsilon included."""
        ab = self.theta.alphabet
        return {Word(ab, ())} | {Word(ab, p) for p in self.palindrome_symbols()}

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
                self._pal_count += 1
                self._last = node

        if ta != a:
            self._gamma_pairs.add((min(a, ta), max(a, ta)))
        self._defects.append(len(sym) + 1 - len(self._gamma_pairs) - self._pal_count)

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


def defect(theta: Antimorphism, w: Word) -> int:
    """Theta-palindromic defect |w| + 1 - gamma - #Pal, via PalIndex."""
    d = pal_index(theta, w.symbols).defect
    if d < 0:
        raise InvariantError(f"negative defect {d}: palindrome count bound violated")
    return d


def defect_profile(theta: Antimorphism, w: Word) -> DefectProfile:
    values = pal_index(theta, w.symbols).defect_values
    pair = theta.pairing
    classes: set[int] = set()
    gammas = [0]
    for s in w.symbols:
        if pair[s] != s:
            classes.add(min(s, pair[s]))
        gammas.append(len(classes))
    # d_k = k + 1 - gamma_k - #Pal_k, solved for #Pal_k
    pals = (k + 1 - g - d for k, (g, d) in enumerate(zip(gammas, values)))
    return DefectProfile(word=w, values=tuple(values), gammas=tuple(gammas),
                         pal_counts=tuple(pals))


def longest_theta_pal_suffix(theta: Antimorphism, w: Word) -> Word:
    return pal_index(theta, w.symbols).lps_word()


def theta_pal_closure(theta: Antimorphism, w: Word) -> Word:
    """Shortest Theta-palindrome having w as a prefix.

    With w = p s, s the longest Theta-palindromic suffix, the closure is
    w Theta(p).
    """
    p_len = len(w) - pal_index(theta, w.symbols).lps_length
    pair = theta.pairing
    tail = tuple(pair[x] for x in reversed(w.symbols[:p_len]))
    return Word(w.alphabet, w.symbols + tail)


def is_rich_finite(theta: Antimorphism, w: Word) -> bool:
    return defect(theta, w) == 0
