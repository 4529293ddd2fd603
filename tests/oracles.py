"""Slow reference implementations the library is cross-checked against.

Each one computes its answer independently of the shared ``pal_index``:
either straight from the definition or by the per-letter loop that the
index-based reader replaced.
"""
from typing import Optional

from palrich.core import (
    Antimorphism,
    InputError,
    Word,
    factor_tuples,
    occurrences_symbols,
    segment_coding,
    symbols_are_theta_palindrome,
)
from palrich.palindromes import DefectProfile, PalIndex
from palrich.returns import CrwReport, CrwViolation


def distinct_theta_palindromes_naive(theta: Antimorphism, w: Word) -> set[Word]:
    """Exact set of Theta-palindromic factors, epsilon included.

    Dynamic programming over factor spans; quadratic, intended as the oracle
    for small words.
    """
    if theta.alphabet != w.alphabet:
        raise InputError("alphabet mismatch")
    s = w.symbols
    pair = theta.pairing
    n = len(s)
    out: set[Word] = {Word(w.alphabet, ())}
    # prevK[i] == factor of length K starting at i is a Theta-palindrome
    prev2 = bytearray(b"\x01" * (n + 1))  # length 0 spans: all palindromic
    prev1 = bytearray(n)
    for i in range(n):
        if s[i] == pair[s[i]]:
            prev1[i] = 1
            out.add(Word(w.alphabet, s[i:i + 1]))
    for length in range(2, n + 1):
        cur = bytearray(n - length + 1)
        inner = prev2 if length % 2 == 0 else prev1
        for i in range(n - length + 1):
            j = i + length - 1
            if s[i] == pair[s[j]] and inner[i + 1]:
                cur[i] = 1
                out.add(Word(w.alphabet, s[i:j + 1]))
        if length % 2 == 0:
            prev2 = cur
        else:
            prev1 = cur
    return out


_HASH_MOD = (1 << 61) - 1
_HASH_BASE = 1_000_003


def count_theta_palindromes_expand(theta: Antimorphism, w: Word) -> int:
    """Count distinct Theta-palindromic factors by center expansion.

    Independent of PalIndex: every palindromic occurrence is enumerated by
    expanding around its center, and distinct factors are deduplicated with a
    rolling hash.  O(n + occurrences), which is O(n^2) in the worst case.
    """
    if theta.alphabet != w.alphabet:
        raise InputError("alphabet mismatch")
    s = w.symbols
    pair = theta.pairing
    n = len(s)
    h = [0] * (n + 1)
    pw = [1] * (n + 1)
    for i, x in enumerate(s):
        h[i + 1] = (h[i] * _HASH_BASE + x + 1) % _HASH_MOD
        pw[i + 1] = (pw[i] * _HASH_BASE) % _HASH_MOD
    seen: set[tuple[int, int]] = set()

    def expand(i: int, j: int) -> None:
        while True:
            seen.add((j - i + 1, (h[j + 1] - h[i] * pw[j + 1 - i]) % _HASH_MOD))
            if i == 0 or j == n - 1 or s[i - 1] != pair[s[j + 1]]:
                return
            i -= 1
            j += 1

    for c in range(n):
        if s[c] == pair[s[c]]:
            expand(c, c)
        if c + 1 < n and s[c] == pair[s[c + 1]]:
            expand(c, c + 1)
    return len(seen) + 1  # epsilon


def occurrence_count(idx: PalIndex, w: Word) -> int:
    """Occurrences of a Theta-palindromic factor in the processed prefix.

    Computed on demand by summing link-tree subtree ends counts.
    """
    target = None
    for node in idx._nodes[2:]:
        if node.length == len(w) and \
                tuple(idx._sym[node.first_end + 1 - node.length:node.first_end + 1]) == w.symbols:
            target = node
            break
    if target is None:
        return 0
    totals = {id(n): n.ends for n in idx._nodes}
    for node in reversed(idx._nodes[2:]):
        totals[id(node.link)] += totals[id(node)]
    return totals[id(target)]


def letter_check_crw_scan(theta: Antimorphism, prefix: Word,
                          min_len: int = 1) -> CrwReport:
    """``crw_palindromicity_scan`` testing each complete return letter by letter."""
    idx = PalIndex(theta)
    sym = prefix.symbols
    idx.extend(sym)
    pair = theta.pairing
    violations: list[CrwViolation] = []
    checked = 0
    worst = 0
    for p in sorted(idx.palindrome_symbols(), key=lambda x: (len(x), x)):
        if len(p) < min_len:
            continue
        occ = occurrences_symbols(sym, p, prefix._bytes)
        if len(occ) < 2:
            continue
        checked += 1
        bad = [cr for cr in segment_coding(sym, occ, len(p))[0]
               if not symbols_are_theta_palindrome(pair, cr)]
        if bad:
            ab = prefix.alphabet
            factor = Word(ab, p)
            violations.extend(CrwViolation(factor=factor, complete_return=Word(ab, cr))
                              for cr in bad)
            worst = max(worst, len(p))
    return CrwReport(min_len=min_len, checked_factors=checked,
                     violations=tuple(violations),
                     empirical_threshold=max(min_len, worst + 1))


def factor_loop_palindromic_complexity(theta: Antimorphism, prefix: Word,
                                       max_length: int) -> list[int]:
    """P(0..max_length) by testing every distinct factor of each length."""
    pair = theta.pairing
    return [sum(1 for f in factor_tuples(prefix.symbols, n)
                if symbols_are_theta_palindrome(pair, f))
            for n in range(max_length + 1)]


def factor_set_complexity(prefix: Word, max_length: int) -> list[int]:
    """C(0..max_length) as the size of each length's factor set."""
    return [len(factor_tuples(prefix.symbols, n)) for n in range(max_length + 1)]


def factor_set_closed_under_theta(theta: Antimorphism, prefix: Word,
                                  n: int) -> tuple[bool, Optional[Word]]:
    """``closed_under_theta`` testing each length's factor set in turn."""
    pair = theta.pairing
    sym = prefix.symbols
    for length in range(1, n + 1):
        facs = factor_tuples(sym, length)
        for f in facs:
            if tuple(pair[x] for x in reversed(f)) not in facs:
                return False, Word(prefix.alphabet, f)
    return True, None


def append_loop_pal_prefix_lengths(theta: Antimorphism, prefix: Word) -> list[int]:
    """Lengths L >= 1 with prefix[:L] a Theta-palindrome: the lps after
    appending L letters is the whole prefix."""
    idx = PalIndex(theta)
    out = []
    for k, s in enumerate(prefix.symbols, start=1):
        idx.append(s)
        if idx.lps_length == k:
            out.append(k)
    return out


def append_loop_defect_profile(theta: Antimorphism, w: Word) -> DefectProfile:
    """Defect profile read off the index after each append."""
    idx = PalIndex(theta)
    gammas = [0]
    pals = [1]
    for s in w.symbols:
        idx.append(s)
        gammas.append(idx.gamma)
        pals.append(idx.pal_count)
    return DefectProfile(word=w, values=tuple(idx.defect_values),
                         gammas=tuple(gammas), pal_counts=tuple(pals))
