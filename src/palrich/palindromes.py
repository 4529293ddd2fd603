"""Distinct Theta-palindromic factors, defect, closure and suffix queries.

``PalIndex`` is an incremental generalized palindromic tree.  A
Theta-palindrome ending with letter ``a`` must begin with ``Theta(a)``, so
the classical suffix-link walk looks for the preceding letter ``Theta(a)``
instead of ``a``, and a length-1 node exists only for letters fixed by Theta.
Every palindrome fact about a word is read from one index, ``pal_index``.
"""
from __future__ import annotations

from functools import lru_cache

from .core import (
    Antimorphism,
    InputError,
    InvariantError,
    Record,
    Word,
    _check_same,
    gamma,
)


class PalIndex:
    """Incremental index of distinct Theta-palindromic factors.

    The tree is stored as parallel columns indexed by node: ``length``,
    ``link`` (the longest proper Theta-palindromic suffix), ``first_end``
    (where the node's first occurrence ends) and ``lps_of`` (the non-empty
    prefixes whose lps, longest Theta-palindromic suffix, it is).  Node 0 is
    the root of length -1, node 1 the empty palindrome; the edge from node v
    by letter a is ``_next[v * k + a]``, k the alphabet size.

    Single-writer: appends are strictly sequential.  A frozen index is safe
    for concurrent read-only queries.
    """

    def __init__(self, theta: Antimorphism):
        self.theta = theta
        self._sym: list[int] = [-1]     # a sentinel, then the letters
        self.length = [-1, 0]
        self.link = [0, 0]
        self.first_end = [-1, -1]
        self.lps_of = [0, 0]
        self._next: dict[int, int] = {}
        self._last = 1

    # -- queries --------------------------------------------------------------

    @property
    def pal_count(self) -> int:
        """#PalTheta of the processed prefix, epsilon included."""
        return len(self.length) - 1

    @property
    def lps_length(self) -> int:
        return self.length[self._last]

    def palindrome_spans(self) -> list[tuple[int, int]]:
        """(start, length) of the first occurrence of each distinct non-empty
        Theta-palindromic factor seen, in order of that occurrence's end."""
        return [(end + 1 - n, n)
                for n, end in zip(self.length[2:], self.first_end[2:])]

    # -- construction ---------------------------------------------------------

    def append(self, a: int) -> None:
        self.extend((a,))

    def extend(self, symbols) -> None:
        symbols = tuple(symbols)
        pair = self.theta.pairing
        k = len(pair)
        if symbols and not (0 <= min(symbols) and max(symbols) < k):
            bad = next(j for j, a in enumerate(symbols) if not 0 <= a < k)
            self.extend(symbols[:bad])
            raise InputError(f"invalid letter index {symbols[bad]}")
        sym, nxt, last = self._sym, self._next, self._last
        length, link, first_end, lps_of = \
            self.length, self.link, self.first_end, self.lps_of
        for p, a in enumerate(symbols, len(sym) - 1):
            # v runs down the suffix palindromes of the prefix to the first
            # one preceded by Theta(a), at sym[p - length[v]]; the root,
            # node 0, takes a alone if a = Theta(a)
            sym.append(a)
            ta = pair[a]
            v = last
            while v and sym[p - length[v]] != ta:
                v = link[v]
            if not v and a != ta:
                last = 1
                lps_of[1] += 1
                continue
            key = v * k + a
            last = nxt.get(key)
            if last is not None:
                lps_of[last] += 1
                continue
            last = len(length)
            length.append(length[v] + 2)
            # the link is the next such suffix extended by a; at the root,
            # the node of a if it is older than the new node, else empty
            v = link[v]
            while v and sym[p - length[v]] != ta:
                v = link[v]
            link.append(nxt.get(v * k + a, 1))
            nxt[key] = last
            first_end.append(p)
            lps_of.append(1)
        self._last = last


class DefectProfile(Record):
    """Per-prefix defect values d_0..d_|w| with the matching gamma/pal counts."""

    values: tuple[int, ...]
    gammas: tuple[int, ...]
    pal_counts: tuple[int, ...]

    def final(self) -> int:
        return self.values[-1]

    @property
    def last_increment(self) -> int | None:
        """Last prefix length k with d_k > d_{k-1}, None if there is none:
        where the longest Theta-palindromic suffix is not unioccurrent."""
        d = self.values
        return max((k for k in range(1, len(d)) if d[k] > d[k - 1]), default=None)

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
    idx = pal_index(theta, symbols)
    return [n for n, end in zip(idx.length[2:], idx.first_end[2:])
            if end + 1 == n]


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
    idx = pal_index(theta, symbols)
    return [n for n, count in zip(idx.length[2:], idx.lps_of[2:]) if count > 1]


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
    for end in pal_index(theta, w.symbols).first_end[2:]:
        first_ends[end + 1] += 1
    pair = theta.pairing
    classes: set[int] = set()
    values, gammas, pals = [0], [0], [1]
    for k, s in enumerate(w.symbols, start=1):
        if pair[s] != s:
            classes.add(min(s, pair[s]))
        gammas.append(len(classes))
        pals.append(pals[-1] + first_ends[k])
        values.append(k + 1 - gammas[-1] - pals[-1])
    return DefectProfile(values=tuple(values), gammas=tuple(gammas),
                         pal_counts=tuple(pals))


def theta_pal_closure(theta: Antimorphism, w: Word) -> Word:
    """Shortest Theta-palindrome having w as a prefix.

    With w = p s, s the longest Theta-palindromic suffix, the closure is
    w Theta(p).
    """
    _check_same(theta, w)
    p_len = len(w) - pal_index(theta, w.symbols).lps_length
    return Word(w.alphabet, w.symbols + theta.image(w.symbols[:p_len]))
