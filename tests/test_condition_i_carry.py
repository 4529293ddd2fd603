"""Condition (i) carries a factor's minimal segments over from its prefix.

``decompose._mirror_bounded_witnesses`` gives a factor x = y a that is no
Theta-palindrome the segments and keys of y when every occurrence of y but
one at the end of v is followed by a, and every occurrence of Theta(y) but
one at 0 is preceded by Theta(a); only the other factors are cut from the
sorted suffix table.  The rule is checked on its own, from occurrence lists,
and the scan against the one that cuts every factor
(``tests/oracles.py::sorted_suffix_condition_i``).
"""
import itertools

import pytest

from palrich.core import Word
from palrich.decompose import _mirror_bounded_witnesses, theorem1_decompose
from palrich.palindromes import defect
from conftest import corpus, every_involution
from oracles import sorted_suffix_condition_i

# every word over 2 letters up to 12 letters and over 3 letters up to 8
SHORT = ((2, 12), (3, 8))


def short_words(k: int, top: int):
    for theta in every_involution(k):
        for length in range(1, top + 1):
            for sym in itertools.product(range(k), repeat=length):
                yield theta, sym


def windows(sym: tuple, length: int) -> dict:
    occ: dict = {}
    for i in range(len(sym) - length + 1):
        occ.setdefault(sym[i:i + length], []).append(i)
    return occ


def segments(sym: tuple, image, occ: dict, x: tuple) -> dict:
    # segment -> (first occurrence of x, first start of the segment): from
    # each occurrence of x to the next mark x or Theta(x), when that mark is
    # a Theta(x) and the segment is no Theta-palindrome
    tx = image(x)
    theirs = set(occ.get(tx, ()))
    marks = sorted(set(occ[x]) | theirs)
    found: dict = {}
    for i, m in zip(marks, marks[1:]):
        u = sym[i:m + len(x)]
        if i in occ[x] and m in theirs and image(u) != u:
            found.setdefault(u, (occ[x][0], i))
    return found


@pytest.mark.parametrize("k,top", SHORT)
def test_carried_factors_keep_their_prefix_segments(k, top):
    # factors kept with segments, all of them and those where y ends v or
    # Theta(y) starts it, so that one occurrence does not extend
    carried, at_ends = 0, [0, 0]
    for theta, sym in short_words(k, top):
        image = theta.image
        before = windows(sym, 1)
        for length in range(2, len(sym) + 1):
            occ = windows(sym, length)
            for x in occ:
                y, tx = x[:-1], image(x)
                ty = tx[1:]
                ends = (sym[-len(y):] == y, sym[:len(ty)] == ty)
                if (tx != x and len(occ[x]) == len(before[y]) - ends[0]
                        and len(occ.get(tx, ())) == len(before.get(ty, ())) - ends[1]):
                    kept = segments(sym, image, occ, x)
                    assert kept == segments(sym, image, before, y), (sym, x)
                    carried += bool(kept)
                    at_ends = [c + (bool(kept) and e) for c, e in zip(at_ends, ends)]
            before = occ
    assert min(at_ends) > 0 and carried > max(at_ends)


@pytest.mark.parametrize("k,top", SHORT)
def test_short_words_match_sorted_suffix_oracle(k, top):
    for theta, sym in short_words(k, top):
        word = Word(theta.alphabet, sym)
        for max_factor_len in (1, 3, 64):
            assert _mirror_bounded_witnesses(theta, word, max_factor_len) == \
                sorted_suffix_condition_i(theta, word, max_factor_len)


# the 4000-letter corpus path codings of Theta-defect above 0, which the
# scan reaches, as decompose --method path --n n
CODINGS = [("thue_morse", n) for n in (1, 2, 3, 5, 8)] + \
    [("ts_exchange", 1), ("ts_mixed3", 1)]
CORPUS_4000 = {name: (theta, word) for name, theta, word in corpus(4000)}


@pytest.mark.parametrize("name,n", CODINGS, ids=[f"{a}-{n}" for a, n in CODINGS])
def test_path_codings_match_sorted_suffix_oracle(name, n):
    coding = theorem1_decompose(*CORPUS_4000[name], n)
    theta2, v = coding.theta2, coding.v_prefix
    assert defect(theta2, v) != 0
    for max_factor_len in (64, 200):
        expected = sorted_suffix_condition_i(theta2, v, max_factor_len)
        assert expected
        assert _mirror_bounded_witnesses(theta2, v, max_factor_len) == expected
