"""Alphabets, involutive antimorphisms, finite words and morphisms.

All hot-path algorithms in the rest of the package work on tuples of
letter indices; string tokens only appear at the edges (parsing, reports).
Every type here is an immutable value and every operation is a pure
function.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional


class InputError(ValueError):
    """Invalid user-supplied data: alphabet mismatch, malformed config, ..."""


class PreconditionError(RuntimeError):
    """A documented precondition of an operation does not hold."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet; letters are non-empty whitespace-free tokens."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise InputError("alphabet needs at least one letter")
        seen = set()
        for tok in self.letters:
            if not tok or any(c.isspace() for c in tok):
                raise InputError(f"bad letter token: {tok!r}")
            if tok in seen:
                raise InputError(f"duplicate letter: {tok!r}")
            seen.add(tok)

    @cached_property
    def _index(self) -> dict:
        return {tok: i for i, tok in enumerate(self.letters)}

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise InputError(f"letter {letter!r} not in alphabet {self.letters}")

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self._index


@dataclass(frozen=True)
class Antimorphism:
    """Involutive antimorphism given by its action on letters.

    The word-level action (reverse and map letters) is always derived from
    ``pairing``; ``pairing[pairing[a]] == a`` is enforced.
    """

    alphabet: Alphabet
    pairing: tuple[int, ...]

    def __post_init__(self):
        k = len(self.alphabet)
        if len(self.pairing) != k:
            raise InputError("pairing must cover the whole alphabet")
        for a, b in enumerate(self.pairing):
            if not 0 <= b < k:
                raise InputError(f"pairing image {b} out of range")
            if self.pairing[b] != a:
                raise InputError(
                    "pairing is not an involution (Theta^2 = Id violated): "
                    f"{self.alphabet.letters[a]} -> {self.alphabet.letters[b]} "
                    f"-> {self.alphabet.letters[self.pairing[b]]}"
                )

    @classmethod
    def reversal(cls, alphabet: Alphabet) -> "Antimorphism":
        """The reversal mapping: identity pairing."""
        return cls(alphabet, tuple(range(len(alphabet))))

    @classmethod
    def from_pairs(cls, alphabet: Alphabet, pairs: Iterable[tuple[str, str]]) -> "Antimorphism":
        """Build from letter pairs; fixed points given as ("c", "c")."""
        mapping: dict[int, int] = {}
        for x, y in pairs:
            i, j = alphabet.index(x), alphabet.index(y)
            for a, b in ((i, j), (j, i)):
                if a in mapping and mapping[a] != b:
                    raise InputError(f"letter {alphabet.letters[a]!r} paired twice")
                mapping[a] = b
        if len(mapping) != len(alphabet):
            missing = [t for i, t in enumerate(alphabet.letters) if i not in mapping]
            raise InputError(f"letters missing from pairing: {missing}")
        return cls(alphabet, tuple(mapping[i] for i in range(len(alphabet))))

    def describe(self) -> dict:
        return {
            "letters": list(self.alphabet.letters),
            "pairs": sorted(
                [sorted((self.alphabet.letters[a], self.alphabet.letters[b]))
                 for a, b in enumerate(self.pairing) if a <= b]
            ),
        }


@dataclass(frozen=True)
class Word:
    """Finite word stored as a tuple of letter indices; the empty word is fine."""

    alphabet: Alphabet
    symbols: tuple[int, ...]

    def __post_init__(self):
        k = len(self.alphabet)
        for s in self.symbols:
            if not 0 <= s < k:
                raise InputError(f"symbol index {s} out of range for alphabet")

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str, tokens: bool = False) -> "Word":
        parts = text.split() if tokens else list(text)
        return cls(alphabet, tuple(alphabet.index(p) for p in parts))

    @classmethod
    def parse(cls, text: str, tokens: bool = False) -> "Word":
        """Parse with an inferred alphabet (sorted distinct letters)."""
        parts = text.split() if tokens else list(text)
        alphabet = Alphabet(tuple(sorted(set(parts)))) if parts else Alphabet(("a",))
        return cls(alphabet, tuple(alphabet.index(p) for p in parts))

    @property
    def text(self) -> str:
        toks = [self.alphabet.letters[s] for s in self.symbols]
        if all(len(t) == 1 for t in self.alphabet.letters):
            return "".join(toks)
        return " ".join(toks)

    def __len__(self) -> int:
        return len(self.symbols)

    def factor(self, start: int, end: int) -> "Word":
        return Word(self.alphabet, self.symbols[start:end])

    def __add__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise InputError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.symbols + other.symbols)

    @cached_property
    def _bytes(self) -> Optional[bytes]:
        if len(self.alphabet) > 256:
            return None
        return bytes(self.symbols)

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


def _check_same(theta_or_word, w: Word) -> None:
    if theta_or_word.alphabet != w.alphabet:
        raise InputError("alphabet mismatch")


def apply_antimorphism(theta: Antimorphism, w: Word) -> Word:
    """Reverse w and replace each letter by its pairing image."""
    _check_same(theta, w)
    pair = theta.pairing
    return Word(w.alphabet, tuple(pair[s] for s in reversed(w.symbols)))


def is_theta_palindrome(theta: Antimorphism, w: Word) -> bool:
    _check_same(theta, w)
    return symbols_are_theta_palindrome(theta.pairing, w.symbols)


def symbols_are_theta_palindrome(pairing, symbols) -> bool:
    # index-level fast path shared by the heavier modules
    i, j = 0, len(symbols) - 1
    while i <= j:
        if symbols[i] != pairing[symbols[j]]:
            return False
        i += 1
        j -= 1
    return True


def apply_morphism(phi: "Morphism", w: Word) -> Word:
    if w.alphabet != phi.source:
        raise InputError("alphabet mismatch: word is not over the morphism source")
    out: list[int] = []
    for s in w.symbols:
        out.extend(phi.images[s].symbols)
    return Word(phi.target, tuple(out))


def gamma(theta: Antimorphism, w: Word) -> int:
    """Number of unordered pairs {a, Theta(a)} with a != Theta(a) meeting w."""
    _check_same(theta, w)
    pair = theta.pairing
    pairs = set()
    for s in set(w.symbols):
        t = pair[s]
        if t != s:
            pairs.add((min(s, t), max(s, t)))
    return len(pairs)


def occurrences(w: Word, f: Word) -> list[int]:
    """All (possibly overlapping) occurrence indices of f in w, ascending."""
    if len(f) == 0:
        raise InputError("occurrences of the empty word are not defined here")
    if f.alphabet != w.alphabet:
        raise InputError("alphabet mismatch")
    return occurrences_symbols(w.symbols, f.symbols, w._bytes, f._bytes)


def occurrences_symbols(hay, needle, hay_b=None, needle_b=None) -> list[int]:
    # the bytes fast path needs every symbol of both hay and needle below 256
    if hay_b is None and max(hay, default=0) < 256:
        hay_b = bytes(hay)
    if needle_b is None and hay_b is not None and max(needle, default=0) < 256:
        needle_b = bytes(needle)
    out: list[int] = []
    if hay_b is not None and needle_b is not None:
        i = hay_b.find(needle_b)
        while i != -1:
            out.append(i)
            i = hay_b.find(needle_b, i + 1)
        return out
    n, m = len(hay), len(needle)
    for i in range(n - m + 1):
        if hay[i:i + m] == needle:
            out.append(i)
    return out


def segment_coding(symbols, starts, tail: int) -> tuple[list[tuple], list[int]]:
    """Cut ``symbols`` between consecutive ``starts`` (ascending).

    Returns the distinct segments ``symbols[a:b + tail]`` over consecutive
    starts a < b, in first-occurrence order, and for each consecutive pair
    the index of its segment in that list.
    """
    index: dict[tuple, int] = {}
    segments: list[tuple] = []
    coding: list[int] = []
    for a, b in zip(starts, starts[1:]):
        seg = symbols[a:b + tail]
        k = index.get(seg)
        if k is None:
            k = index[seg] = len(segments)
            segments.append(seg)
        coding.append(k)
    return segments, coding


def factor_set(w: Word, n: int) -> set[Word]:
    """Distinct length-n factors of w."""
    if not 0 <= n <= len(w):
        raise InputError(f"factor length {n} out of range for |w|={len(w)}")
    return {Word(w.alphabet, t) for t in factor_tuples(w.symbols, n)}


def factor_tuples(symbols, n: int) -> set[tuple]:
    return {symbols[i:i + n] for i in range(len(symbols) - n + 1)}


@dataclass(frozen=True)
class Morphism:
    """Letter-to-word substitution phi: source* -> target*."""

    source: Alphabet
    target: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != len(self.source):
            raise InputError("every source letter needs an image")
        for im in self.images:
            if im.alphabet != self.target:
                raise InputError("morphism image over wrong alphabet")

    def describe(self) -> dict:
        return {t: self.images[i].text for i, t in enumerate(self.source.letters)}


# --- config file formats -----------------------------------------------------

def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(t, str) for t in x)


def antimorphism_from_config(cfg: dict) -> Antimorphism:
    """JSON config: {"letters": [...], "pairs": [["a","b"], ["c","c"], ...]}.

    Every letter must appear in exactly one pair; fixed points are singleton
    pairs written ["c","c"].
    """
    try:
        letters = cfg["letters"]
        pairs = cfg["pairs"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"antimorphism config needs 'letters' and 'pairs': {exc}")
    if not (_is_str_list(letters) and isinstance(pairs, list)
            and all(_is_str_list(pr) for pr in pairs)):
        raise InputError("antimorphism config: 'letters' must be a list of "
                         "strings and 'pairs' a list of lists of strings")
    alphabet = Alphabet(tuple(letters))
    counted: dict[str, int] = {}
    for pr in pairs:
        if len(pr) != 2:
            raise InputError(f"pair must have two entries: {pr}")
        for x in set(pr):
            counted[x] = counted.get(x, 0) + 1
    for tok in alphabet.letters:
        if counted.get(tok, 0) != 1:
            raise InputError(f"letter {tok!r} must appear in exactly one pair")
    return Antimorphism.from_pairs(alphabet, [tuple(p) for p in pairs])


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


def antimorphism_from_file(path: str) -> Antimorphism:
    try:
        cfg = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    return antimorphism_from_config(cfg)


def word_from_file(path: str, tokens: bool = False) -> Word:
    """UTF-8 word file: one letter per character, or whitespace tokens; the
    alphabet is the sorted set of letters found."""
    text = _read_text(path)
    if not tokens:
        text = "".join(text.split())
    return Word.parse(text, tokens=tokens)
