"""Deterministic infinite-word sources for the analysis corpus.

Periodic words, the Thue-Morse word, standard episturmian words via iterated
palindromic closure, and Theta-standard words with seed via iterated
Theta-palindromic closure.  Every source yields consistent prefixes:
``prefix(m)`` is a prefix of ``prefix(n)`` for m <= n.
"""
from __future__ import annotations

from .core import Alphabet, Antimorphism, InputError, Record, Word
from .palindromes import pal_prefix_lengths, theta_pal_closure
from .complexity import _SuffixAutomaton


class DirectiveSequence(Record):
    """Eventually periodic directive: preperiod then repeated period."""

    pre: Word
    period: Word

    def __post_init__(self):
        if len(self.period) == 0:
            raise InputError("directive period must be non-empty")
        if self.pre.alphabet != self.period.alphabet:
            raise InputError("directive pre/period over different alphabets")

    @property
    def alphabet(self) -> Alphabet:
        return self.period.alphabet

    def letter(self, k: int) -> int:
        """k-th directive letter index, k >= 0."""
        if k < len(self.pre):
            return self.pre.symbols[k]
        return self.period.symbols[(k - len(self.pre)) % len(self.period)]

    def describe(self) -> dict:
        return {"pre": self.pre.text, "period": self.period.text}

    @classmethod
    def parse(cls, alphabet: Alphabet, pre: str, period: str,
              tokens: bool = False) -> "DirectiveSequence":
        return cls(Word.from_text(alphabet, pre, tokens),
                   Word.from_text(alphabet, period, tokens))


def _check_length(n: int) -> None:
    if n < 0:
        raise InputError(f"prefix length {n} is negative")


class WordSource:
    """Base class: deterministic prefix generator over a fixed alphabet."""

    kind: str
    alphabet: Alphabet

    def prefix(self, n: int) -> Word:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.kind, "letters": list(self.alphabet.letters)}


class PeriodicSource(WordSource):
    kind = "periodic"

    def __init__(self, period: Word):
        if len(period) == 0:
            raise InputError("period must be non-empty")
        self.alphabet = period.alphabet
        self.period = period

    def prefix(self, n: int) -> Word:
        _check_length(n)
        p = self.period.symbols
        return Word.unchecked(self.alphabet, (p * (n // len(p) + 1))[:n])

    def describe(self) -> dict:
        return {**super().describe(), "period": self.period.text}


class ThueMorseSource(WordSource):
    """Fixed point of a -> ab, b -> ba from a: t[:2m] is t[:m], then t[:m] flipped."""

    kind = "thue_morse"
    alphabet = Alphabet(("a", "b"))
    _FLIP = bytes.maketrans(b"\0\1", b"\1\0")

    def prefix(self, n: int) -> Word:
        _check_length(n)
        t = b"\0"
        while len(t) < n:
            t += t.translate(self._FLIP)
        return Word.unchecked(self.alphabet, tuple(t[:n]))


class ClosureSource(WordSource):
    """Iterated Theta-palindromic closure directed by a directive sequence.

    w_0 is the closure of the seed; w_{k+1} is the closure of w_k followed
    by the next directive letter.  The classical episturmian construction is
    the special case Theta = reversal, empty seed.

    Each step appends a part of w_k read off its proper Theta-palindromic
    prefixes (Justin's formula in the pseudopalindromic form of de Luca and
    De Luca 2006), so no palindromic index is built.
    """

    kind = "theta_standard_seed"

    def __init__(self, theta: Antimorphism, seed: Word, directive: DirectiveSequence):
        if seed.alphabet != theta.alphabet or directive.alphabet != theta.alphabet:
            raise InputError("seed/directive must be over the antimorphism alphabet")
        self.alphabet = theta.alphabet
        self.theta = theta
        self.seed = seed
        self.directive = directive
        self._pair = theta.pairing
        self._buf = list(theta_pal_closure(theta, seed).symbols)
        # ascending lengths of the proper Theta-palindromic prefixes of the
        # current word: longer ones than the seed's would contain the seed,
        # so they are at least as long as its closure
        self._pal_prefixes = [0] if self._buf else []
        self._pal_prefixes += [k for k in pal_prefix_lengths(theta, seed.symbols)
                               if k < len(self._buf)]
        self._steps = 0

    def _grow_to(self, n: int) -> None:
        buf = self._buf
        while len(buf) < n:
            self._steps += 1
            a = self.directive.letter(self._steps - 1)
            # a Theta-palindromic suffix of w_k a longer than one letter is
            # Theta(a) q a, q a proper Theta-palindromic prefix followed by a;
            # the longest q gives w_k w_k[|q|:], none w_k a (Theta(a)) w_k
            k = len(buf)
            for q in reversed(self._pal_prefixes):
                if buf[q] == a:
                    buf.extend(buf[q:k])
                    break
            else:
                buf.extend((a,) if self._pair[a] == a else (a, self._pair[a]))
                buf.extend(buf[:k])
            self._pal_prefixes.append(k)

    def prefix(self, n: int) -> Word:
        _check_length(n)
        self._grow_to(n)
        return Word.unchecked(self.alphabet, tuple(self._buf[:n]))

    def describe(self) -> dict:
        return {
            **super().describe(),
            "seed": self.seed.text,
            "directive": self.directive.describe(),
            "antimorphism": self.theta.describe(),
        }


def episturmian_source(d: DirectiveSequence) -> ClosureSource:
    """Standard episturmian word: iterated reversal-closure, empty seed."""
    theta = Antimorphism.reversal(d.alphabet)
    src = ClosureSource(theta, Word.unchecked(d.alphabet, ()), d)
    src.kind = "episturmian"
    return src


def fibonacci_source() -> ClosureSource:
    ab = Alphabet(("a", "b"))
    return episturmian_source(DirectiveSequence.parse(ab, "", "ab"))


def tribonacci_source() -> ClosureSource:
    abc = Alphabet(("a", "b", "c"))
    return episturmian_source(DirectiveSequence.parse(abc, "", "abc"))


class ArnouxRauzyReport(Record):
    ok: bool
    valence: int
    checked_up_to: int
    first_failure: int | None
    reason: str | None

    def describe(self) -> dict:
        return {"ok": self.ok, "valence": self.valence,
                "checked_up_to": self.checked_up_to,
                "first_failure": self.first_failure, "reason": self.reason}


def arnoux_rauzy_check(prefix: Word, max_len: int, valence: int) -> ArnouxRauzyReport:
    """Desk-scale Arnoux-Rauzy test on a finite prefix.

    Convention adopted: for each length 1..max_len there is exactly one LS
    and one RS factor, each with full valence, and the factor set is closed
    under reversal.  (Definition choice is documented in the README.)  The
    first failing length is reported; at one length, closure is checked
    before the special factors.  All are read from one suffix automaton.
    """
    sam = _SuffixAutomaton(prefix.symbols)
    # the reversals of the factors are the factors of the reversed prefix
    unclosed, _ = sam.shortest_absent(prefix.symbols[::-1])
    left, right = sam.special_valences(max_len)
    for n in range(1, max_len + 1):
        ls, rs = left[n], right[n]
        if n == unclosed:
            reason = "factor set not closed under reversal"
        elif ls.total() != 1 or rs.total() != 1:
            reason = (f"expected one LS and one RS factor, got "
                      f"{ls.total()} LS / {rs.total()} RS")
        elif ls.keys() != {valence} or rs.keys() != {valence}:
            reason = f"special factor valence {min(ls)}/{min(rs)} != {valence}"
        else:
            continue
        return ArnouxRauzyReport(False, valence, max_len, n, reason)
    return ArnouxRauzyReport(True, valence, max_len, None, None)
