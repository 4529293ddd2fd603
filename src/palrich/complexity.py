"""Factor complexity C(n), palindromic complexity P(n) and the gap T(n).

C(n) and the closure check read one suffix automaton of the word, shared
like ``palindromes.pal_index``.  Counts are exact for the analyzed prefix.
When the prefix stands in for an infinite word, only lengths up to
``safe_length`` are treated as reliable: near the end of a finite prefix,
factors can miss occurrences of their Theta-images, and the closure/richness
statements concern infinite languages.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate

from .core import (
    Antimorphism,
    InputError,
    PreconditionError,
    Record,
    Word,
    _check_same,
)
from .palindromes import pal_index

DEFAULT_SAFE_DIVISOR = 64


class _SuffixAutomaton:
    """Smallest automaton of the factors of a word (Blumer et al. 1985).

    State v stands for the factors of lengths ``length[link[v]] + 1`` to
    ``length[v]`` that share one set of end positions; state 0 is the empty
    word.
    """

    __slots__ = ("length", "link", "next")

    def __init__(self, symbols: tuple):
        length = [0]
        link = [-1]
        nxt: list[dict[int, int]] = [{}]
        last = 0
        for a in symbols:
            cur = len(length)
            length.append(length[last] + 1)
            link.append(0)
            nxt.append({})
            p = last
            while p != -1 and a not in nxt[p]:
                nxt[p][a] = cur
                p = link[p]
            if p != -1:
                q = nxt[p][a]
                if length[q] == length[p] + 1:
                    link[cur] = q
                else:
                    clone = len(length)
                    length.append(length[p] + 1)
                    link.append(link[q])
                    nxt.append(dict(nxt[q]))
                    while p != -1 and nxt[p].get(a) == q:
                        nxt[p][a] = clone
                        p = link[p]
                    link[q] = link[cur] = clone
            last = cur
        self.length = length
        self.link = link
        self.next = nxt

    def complexity(self) -> list[int]:
        """C(0..|w|): each state adds 1 to C(n) on its length interval."""
        length, link = self.length, self.link
        diff = [0] * (max(length) + 2)
        for v in range(1, len(length)):
            diff[length[link[v]] + 1] += 1
            diff[length[v] + 1] -= 1
        return [1, *accumulate(diff[1:-1])]

    def special_valences(self, max_len: int) -> tuple[list[Counter], list[Counter]]:
        """Valence -> count of the left and of the right special factors of
        each length 0..max_len.  A state's factors share their end positions,
        hence their right extensions, its transitions.  One shorter than the
        state's longest always has the same letter on its left; the longest,
        w, has a left extension a per state linked to it, whose shortest
        factor is aw.  Right special factors number at most C(max_len + 1)."""
        length, link, nxt = self.length, self.link, self.next
        children = Counter(link[1:])
        left = [Counter() for _ in range(max_len + 1)]
        right = [Counter() for _ in range(max_len + 1)]
        for v in range(1, len(length)):
            if children[v] >= 2 and length[v] <= max_len:
                left[length[v]][children[v]] += 1
            if len(nxt[v]) >= 2:
                for n in range(length[link[v]] + 1, min(length[v], max_len) + 1):
                    right[n][len(nxt[v])] += 1
        return left, right

    def shortest_absent(self, symbols) -> tuple[int | None, int]:
        """(m, r): m is the length of the shortest factor of ``symbols`` that
        is not a factor of the indexed word, and ``symbols[r - m:r]`` its
        last occurrence; (None, 0) if there is none.

        Matching statistics: after each letter, ``matched`` is the longest
        suffix read so far that is a factor; the suffix one letter longer is
        absent, and every shortest absent factor is one of those.
        """
        length, link, nxt = self.length, self.link, self.next
        best, at = None, 0
        v = matched = 0
        for read, a in enumerate(symbols, start=1):
            while v and a not in nxt[v]:
                v = link[v]
                matched = length[v]
            if a in nxt[v]:
                v = nxt[v][a]
                matched += 1
            else:
                matched = 0
            if matched < read and (best is None or matched + 1 <= best):
                best, at = matched + 1, read
        return best, at


class _FactorCounts(Record):
    c: tuple[int, ...]              # C(0..|w|)
    shortest_absent: int | None  # least length of a factor with absent image
    witness_start: int           # start of the leftmost such factor


@lru_cache(maxsize=1)
def _factor_counts(theta: Antimorphism, symbols: tuple) -> _FactorCounts:
    """C(n) and closure of one word, read off its suffix automaton.

    Shared by every analysis of the word, as ``pal_index`` is.  Only the
    counts are kept: the automaton (about 0.5 kB per letter) would stay
    alive through the rest of the analysis and raise its peak memory.
    """
    sam = _SuffixAutomaton(symbols)
    # Theta(w)[r - m:r] is Theta(w[|w| - r:|w| - r + m]), so it is absent from
    # w exactly when that factor of w has an absent image: the last shortest
    # absent factor of Theta(w) is the image of the leftmost such factor
    shortest, read = sam.shortest_absent(theta.image(symbols))
    return _FactorCounts(tuple(sam.complexity()), shortest,
                         len(symbols) - read)


def default_safe_length(prefix_length: int, divisor: int = DEFAULT_SAFE_DIVISOR) -> int:
    if divisor < 1:
        raise InputError(f"safe-length divisor must be at least 1, got {divisor}")
    return max(1, prefix_length // divisor)


class ComplexityTable(Record):
    """Rows n = 0..N with C(n), P(n) and T(n) = C(n+1)-C(n)+2-P(n+1)-P(n)."""

    source: str
    max_length: int
    c: tuple[int, ...]            # C(0..N)
    p: tuple[int, ...]            # P(0..N)
    safe_length: int

    def t(self, n: int) -> int:
        if not 1 <= n <= self.max_length:
            raise InputError(f"T(n) defined for 1 <= n <= {self.max_length}")
        return self.c[n + 1] - self.c[n] + 2 - self.p[n + 1] - self.p[n]

    def to_csv(self) -> str:
        lines = ["n,C,P,T"]
        for n in range(self.max_length + 1):
            t = self.t(n) if n >= 1 else ""
            lines.append(f"{n},{self.c[n]},{self.p[n]},{t}")
        return "\n".join(lines) + "\n"

    def describe(self) -> dict:
        return {
            "source": self.source,
            "max_length": self.max_length,
            "safe_length": self.safe_length,
            "C": list(self.c[:self.max_length + 1]),
            "P": list(self.p[:self.max_length + 1]),
            "T": [self.t(n) for n in range(1, self.max_length + 1)],
        }


def complexity_table(theta: Antimorphism, prefix: Word, max_length: int,
                     safe_length: int | None = None,
                     source: str = "word") -> ComplexityTable:
    _check_same(theta, prefix)
    if max_length + 1 > len(prefix):
        raise InputError(
            f"max_length {max_length} too large for prefix of length {len(prefix)}")
    if safe_length is None:
        safe_length = default_safe_length(len(prefix))
    # P(n) is the number of palindrome nodes of length n, plus epsilon
    p = Counter(pal_index(theta, prefix.symbols).length[2:])
    p[0] = 1
    top = max_length + 1
    return ComplexityTable(source=source, max_length=max_length,
                           c=_factor_counts(theta, prefix.symbols).c[:top + 1],
                           p=tuple(p[n] for n in range(top + 1)),
                           safe_length=safe_length)


def check_inequality2(table: ComplexityTable, closed: bool) -> dict:
    """List every reliable n with T(n) < 0.

    For a language closed under Theta the list must be empty; ``closed``
    records whether that guarantee applies.
    """
    top = min(table.max_length, table.safe_length)
    violations = [n for n in range(1, top + 1) if table.t(n) < 0]
    return {"closed": closed, "checked_up_to": top, "violations": violations}


def is_rich_by_T(table: ComplexityTable, closed: bool) -> bool:
    """True iff T(n) = 0 for all reliable n >= 1.

    Only meaningful for languages closed under Theta; the caller passes the
    result of ``closed_under_theta``.
    """
    if not closed:
        raise PreconditionError(
            "richness via T(n) requires the closure check to have passed")
    top = min(table.max_length, table.safe_length)
    return all(table.t(n) == 0 for n in range(1, top + 1))


def closed_under_theta(theta: Antimorphism, prefix: Word,
                       n: int) -> tuple[bool, Word | None]:
    """Is the factor set of the prefix closed under Theta up to length n?

    Returns (True, None) or (False, witness).  The witness is the leftmost
    of the shortest factors whose Theta-image is absent.
    """
    _check_same(theta, prefix)
    counts = _factor_counts(theta, prefix.symbols)
    length = counts.shortest_absent
    if length is None or length > n:
        return True, None
    start = counts.witness_start
    return False, prefix.factor(start, start + length)
