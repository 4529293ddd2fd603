"""Factor complexity C(n), palindromic complexity P(n) and the gap T(n).

Counts are exact for the analyzed prefix.  When the prefix stands in for an
infinite word, only lengths up to ``safe_length`` are treated as reliable:
near the end of a finite prefix, factors can miss occurrences of their
Theta-images, and the closure/richness statements concern infinite languages.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import (
    Antimorphism,
    InputError,
    PreconditionError,
    Word,
    factor_tuples,
)
from .palindromes import pal_index

DEFAULT_SAFE_DIVISOR = 64


def default_safe_length(prefix_length: int, divisor: int = DEFAULT_SAFE_DIVISOR) -> int:
    return max(1, prefix_length // divisor)


@dataclass(frozen=True)
class ComplexityTable:
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

    @property
    def t_values(self) -> dict[int, int]:
        return {n: self.t(n) for n in range(1, self.max_length + 1)}

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
                     safe_length: Optional[int] = None,
                     source: str = "word") -> ComplexityTable:
    if theta.alphabet != prefix.alphabet:
        raise InputError("alphabet mismatch")
    if max_length + 1 > len(prefix):
        raise InputError(
            f"max_length {max_length} too large for prefix of length {len(prefix)}")
    if safe_length is None:
        safe_length = default_safe_length(len(prefix))
    # P(n) is the number of palindrome nodes of length n, plus epsilon
    p = Counter(length for _, length
                in pal_index(theta, prefix.symbols).palindrome_spans())
    p[0] = 1
    rows = range(max_length + 2)
    return ComplexityTable(source=source, max_length=max_length,
                           c=tuple(len(factor_tuples(prefix.symbols, n)) for n in rows),
                           p=tuple(p[n] for n in rows),
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
                       n: int) -> tuple[bool, Optional[Word]]:
    """Is the factor set of the prefix closed under Theta up to length n?

    Returns (True, None) or (False, witness) with a factor whose image is
    absent.
    """
    if theta.alphabet != prefix.alphabet:
        raise InputError("alphabet mismatch")
    pair = theta.pairing
    sym = prefix.symbols
    for length in range(1, n + 1):
        facs = factor_tuples(sym, length)
        for f in facs:
            if tuple(pair[x] for x in reversed(f)) not in facs:
                return False, Word(prefix.alphabet, f)
    return True, None
