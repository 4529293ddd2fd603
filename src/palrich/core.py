"""Alphabets, involutive antimorphisms, finite words and morphisms.

All hot-path algorithms in the rest of the package work on tuples of
letter indices; string tokens only appear at the edges (parsing, reports).
Every type here is an immutable value and every operation is a pure
function.
"""
from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable
from functools import cached_property
from itertools import chain


MAX_LETTERS = 1 << 20   # longest word read or generated; analyze at 10**6 takes 650 MB


class InputError(ValueError):
    """Invalid user-supplied data: alphabet mismatch, malformed config, ..."""


class PreconditionError(RuntimeError):
    """A documented precondition of an operation does not hold."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


class Record:
    """An immutable value as ``dataclass(frozen=True)`` makes it, without the
    code that decorator generates and ``exec``-s per class at import (most of
    palrich's start-up).  The fields are the names annotated in the class
    body, in order; ``__init__`` takes them by position or keyword, then calls
    ``__post_init__``.  Equality (same class only), hash and repr read the
    field tuple; assignment and deletion raise ``AttributeError``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()   # looked up here, so a rebinding on the class counts

    def _bind(self, args: tuple, kwargs: dict) -> list:
        fields, name = self._fields, type(self).__name__
        given = dict(zip(fields, args))
        if len(args) > len(fields) or kwargs.keys() - (set(fields) - given.keys()):
            raise TypeError(f"{name}() got unexpected or repeated fields")
        given.update(kwargs)
        missing = [f for f in fields if f not in given]
        if missing:
            raise TypeError(f"{name}() missing fields: {', '.join(missing)}")
        return [given[f] for f in fields]

    def __post_init__(self):
        """Check the fields; a class that validates them overrides this."""

    def _astuple(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        d = self.__dict__
        return (f"{type(self).__qualname__}("
                f"{', '.join(f'{f}={d[f]!r}' for f in self._fields)})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(Record):
    """Ordered finite alphabet: at most MAX_LETTERS non-empty whitespace-free tokens."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise InputError("alphabet needs at least one letter")
        if len(self.letters) > MAX_LETTERS:   # each letter is one code point
            raise InputError(f"{len(self.letters)} letters, more than the {MAX_LETTERS} allowed")
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

    @cached_property
    def _spelling(self) -> tuple[str, ...]:
        sep = "" if all(len(t) == 1 for t in self.letters) else " "
        return tuple([t + sep for t in self.letters])

    def spell(self, symbols) -> str:
        """The tokens of ``symbols``, joined with "" if all are one character, else " "."""
        return self.spell_text(encode(symbols))

    def spell_text(self, text: str) -> str:
        """``spell`` of the letters ``encode`` wrote as ``text``: a token and
        separator per letter, the last separator stripped (no token holds one)."""
        return text.translate(self._spelling).rstrip(" ")


class Antimorphism(Record):
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

    def image(self, symbols) -> tuple:
        """Theta of a symbol sequence: reversed, each letter paired."""
        pair = self.pairing
        return tuple(pair[x] for x in reversed(symbols))

    def describe(self) -> dict:
        return {
            "letters": list(self.alphabet.letters),
            "pairs": sorted(
                [sorted((self.alphabet.letters[a], self.alphabet.letters[b]))
                 for a, b in enumerate(self.pairing) if a <= b]
            ),
        }


class Word(Record):
    """Finite word stored as a tuple of letter indices; the empty word is fine."""

    alphabet: Alphabet
    symbols: tuple[int, ...]

    def __post_init__(self):
        k = len(self.alphabet)
        for s in self.symbols:
            if not 0 <= s < k:
                raise InputError(f"symbol index {s} out of range for alphabet")

    @classmethod
    def unchecked(cls, alphabet: Alphabet, symbols: tuple) -> "Word":
        """The word, its letters not range-checked: palrich made or checked them."""
        w = object.__new__(cls)
        w.__dict__.update(alphabet=alphabet, symbols=symbols)
        return w

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str,
                  tokens: bool = False) -> "Word":
        """The word ``text`` spells over ``alphabet``, split as ``parse`` splits."""
        parts = text.split() if tokens else text
        return cls.unchecked(alphabet, tuple(map(alphabet.index, parts)))

    @classmethod
    def parse(cls, text: str, tokens: bool = False) -> "Word":
        """Parse with an inferred alphabet (sorted distinct letters): one
        letter per character, or with ``tokens`` one per whitespace-separated
        token."""
        parts = text.split() if tokens else text
        if len(parts) > MAX_LETTERS:
            raise InputError(f"{len(parts)} letters, more than the {MAX_LETTERS} allowed")
        alphabet = Alphabet(tuple(sorted(set(parts)))) if parts else Alphabet(("a",))
        return cls.unchecked(alphabet, tuple(map(alphabet.index, parts)))

    @property
    def text(self) -> str:
        return self.alphabet.spell(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def factor(self, start: int, end: int) -> "Word":
        return Word.unchecked(self.alphabet, self.symbols[start:end])

    @cached_property
    def encoded(self) -> str:
        """The letters as one code point each (``encode``)."""
        return encode(self.symbols)

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


def _check_same(theta_or_word, w: Word) -> None:
    if theta_or_word.alphabet != w.alphabet:
        raise InputError("alphabet mismatch")


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


def encode(symbols) -> str:
    """Letter indices as the code points of one ``str``, so ``str.find`` hits
    whole letters only and equal-length words sort as their tuples do.  The
    byte order is named, so a leading 65279 is no byte-order mark, and
    55296-57343 pass as lone surrogates."""
    return array("I", symbols).tobytes().decode(f"utf-32-{sys.byteorder[0]}e",
                                                "surrogatepass")


def find_all(text: str, needle: str, start: int = 0) -> list[int]:
    """Every offset of ``needle`` in ``text`` from ``start``, overlaps included."""
    out: list[int] = []
    i = text.find(needle, start)
    while i != -1:
        out.append(i)
        i = text.find(needle, i + 1)
    return out


def occurrences(w: Word, f: Word) -> list[int]:
    """All (possibly overlapping) occurrence indices of f in w, ascending."""
    if len(f) == 0:
        raise InputError("occurrences of the empty word are not defined here")
    _check_same(f, w)
    return find_all(w.encoded, f.encoded)


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


class Morphism(Record):
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

    def image(self, symbols) -> tuple:
        """phi of a symbol sequence: the images of its letters, concatenated."""
        return tuple(chain.from_iterable(self.images[s].symbols for s in symbols))

    def describe(self) -> dict:
        return {t: self.images[i].text for i, t in enumerate(self.source.letters)}
