"""Return words and finite-defect scans.

The constants appearing in the finite-defect characterizations are
existential, so every scan here reports empirical thresholds observed on the
analyzed prefix ("no violations for lengths >= L") instead of booleans about
the infinite word.
"""
from __future__ import annotations

from .core import (
    Antimorphism,
    InputError,
    Record,
    Word,
    _check_same,
    find_all,
    occurrences,
    segment_coding,
)
from .palindromes import defect_profile, pal_index


class ReturnStructure(Record):
    factor: Word
    occurrence_indices: tuple[int, ...]
    complete_returns: tuple[Word, ...]   # first-occurrence order, deduplicated
    returns: tuple[Word, ...]            # complete returns minus trailing factor


def return_structure(prefix: Word, w: Word) -> ReturnStructure:
    """Complete return words of w witnessed in the prefix.

    Each complete return spans two consecutive occurrences of w; the plain
    return words drop the trailing w.
    """
    occ = occurrences(prefix, w)
    if len(occ) < 2:
        raise InputError(
            f"factor occurs {len(occ)} time(s); need at least 2 for return words")
    m = len(w)
    crs, _ = segment_coding(prefix.symbols, occ, m)
    ab = prefix.alphabet
    return ReturnStructure(
        factor=w, occurrence_indices=tuple(occ),
        complete_returns=tuple(Word.unchecked(ab, cr) for cr in crs),
        returns=tuple(Word.unchecked(ab, cr[:len(cr) - m]) for cr in crs))


def mirror_bounded_palindromicity(theta: Antimorphism, prefix: Word,
                                  w: Word) -> tuple[bool, list[Word]]:
    """Check every minimal factor from w to Theta(w) for Theta-palindromicity.

    A witnessed factor begins with w, ends with Theta(w), and has no other
    occurrence of either; all such factors must be Theta-palindromes.
    """
    _check_same(theta, prefix)
    _check_same(w, prefix)
    sym = prefix.symbols
    m = len(w)
    tw = theta.image(w.symbols)
    occ_w = occurrences(prefix, w)
    occ_t = occurrences(prefix, Word.unchecked(prefix.alphabet, tw)) if tw != w.symbols else occ_w
    set_w, set_t = set(occ_w), set(occ_t)
    marks = sorted(set_w | set_t)
    witnesses: list[Word] = []
    seen: set[tuple] = set()
    # minimal segments: a w-occurrence immediately followed (in the merged
    # occurrence order) by a Theta(w)-occurrence
    for i1, i2 in zip(marks, marks[1:]):
        if not (i1 in set_w and i2 in set_t):
            continue
        seg = sym[i1:i2 + m]
        if seg in seen:
            continue
        seen.add(seg)
        if theta.image(seg) != seg:
            witnesses.append(Word.unchecked(prefix.alphabet, seg))
    return (len(witnesses) == 0), witnesses


class CrwReport(Record):
    prefix: Word
    checked_factors: int
    # each non-palindromic complete return as two (start, length) spans of
    # the prefix, where the factor and where the complete return first occur
    violations: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    empirical_threshold: int   # smallest length with no violations at or above it

    def describe(self) -> dict:
        seq, spell = self.prefix.encoded, self.prefix.alphabet.spell_text
        return {
            "min_len": 1,
            "checked_factors": self.checked_factors,
            "violations": [{"factor": spell(seq[a:a + m]),
                            "complete_return": spell(seq[b:b + n])}
                           for (a, m), (b, n) in self.violations],
            "empirical_threshold": self.empirical_threshold,
        }


def crw_palindromicity_scan(theta: Antimorphism, prefix: Word) -> CrwReport:
    """Check complete returns of every Theta-palindromic factor for
    Theta-palindromicity.

    Scans all non-empty Theta-palindromic factors occurring at least twice;
    the empirical threshold is one more than the longest violating factor (a
    stand-in for the existential constant of the finite-defect
    characterization).
    """
    _check_same(theta, prefix)
    seq = prefix.encoded
    # str slices take an eighth of the memory of tuples; the palindromes of
    # 4000 Fibonacci letters hold six million letters.  Each sorts by (length,
    # letters), with its first start, where its search begins.
    pals = sorted([(seq[start:start + length], start) for start, length
                   in pal_index(theta, prefix.symbols).palindrome_spans()],
                  key=lambda ps: (len(ps[0]), ps[0]))
    # every complete return is a factor of the prefix, so it is a
    # Theta-palindrome exactly when it is one of the prefix's palindromes
    pal_set = {p for p, _ in pals}
    violations: list[tuple] = []
    checked = worst = 0
    for p, start in pals:
        occ = find_all(seq, p, start)
        if len(occ) < 2:
            continue
        checked += 1
        returns, coding = segment_coding(seq, occ, len(p))
        bad = [k for k, cr in enumerate(returns) if cr not in pal_set]
        if bad:     # spans of the prefix, where each first occurs
            worst = len(p)
            first = {k: a for a, k in reversed([*zip(occ, coding)])}
            violations.extend(((start, worst), (first[k], len(returns[k])))
                              for k in bad)
    return CrwReport(prefix, checked_factors=checked, violations=tuple(violations),
                     empirical_threshold=worst + 1)


def unioccurrent_lps_scan(theta: Antimorphism, prefix: Word) -> int | None:
    """Last position where the longest Theta-palindromic suffix fails to be
    unioccurrent; None if no violation.

    Prefixes of the word are scanned: a violation at prefix length k is
    exactly a defect increment d_k - d_{k-1} = 1, which
    ``DefectProfile.last_increment`` reads.
    """
    return defect_profile(theta, prefix).last_increment
