import random

import pytest

from palrich.core import Alphabet, Antimorphism, InputError, Word, occurrences
from palrich.returns import (
    crw_palindromicity_scan,
    mirror_bounded_palindromicity,
    return_structure,
    unioccurrent_lps_scan,
)
from palrich.generators import PeriodicSource, ThueMorseSource, fibonacci_source
from conftest import random_involution, random_word, w
from oracles import crw_words, occurrences_alternate


def test_fibonacci_returns_of_a(ab):
    fib = fibonacci_source().prefix(2000)
    rs = return_structure(fib, w(ab, "a"))
    assert {x.text for x in rs.complete_returns} == {"aa", "aba"}
    assert {x.text for x in rs.returns} == {"a", "ab"}
    assert rs.occurrence_indices[0] == 0


def test_periodic_returns(ab):
    word = PeriodicSource(w(ab, "ab")).prefix(100)
    rs = return_structure(word, w(ab, "ab"))
    assert {x.text for x in rs.complete_returns} == {"abab"}
    assert {x.text for x in rs.returns} == {"ab"}


def test_return_structure_requires_two_occurrences(ab):
    with pytest.raises(InputError):
        return_structure(w(ab, "abba"), w(ab, "bb"))


def test_returns_consistency_random(ab, tr):
    rng = random.Random(5)
    for _ in range(40):
        word = random_word(rng, tr, rng.randint(10, 80))
        f = word.factor(0, rng.randint(1, 3))
        occ = occurrences(word, f)
        if len(occ) < 2:
            continue
        rs = return_structure(word, f)
        # each complete return starts and ends with the factor and contains
        # exactly two occurrences of it
        for cr in rs.complete_returns:
            assert cr.symbols[:len(f)] == f.symbols
            assert cr.symbols[-len(f):] == f.symbols
            assert len(occurrences(cr, f)) == 2
        for r, cr in zip(rs.returns, rs.complete_returns):
            assert r.symbols + f.symbols == cr.symbols


def test_occurrences_alternate(ab, swap, tr):
    word = PeriodicSource(w(ab, "ab")).prefix(40)
    ok, _ = occurrences_alternate(tr, word, w(ab, "ab"))
    assert ok
    ok, first_bad = occurrences_alternate(tr, word, w(ab, "aba"))
    assert ok and first_bad is None
    # "a" and "b" alternate strictly in (ab)^k under the exchange map
    ok, _ = occurrences_alternate(swap, word, w(ab, "a"))
    assert ok
    bad = w(ab, "aabab")
    ok, first_bad = occurrences_alternate(swap, bad, w(ab, "a"))
    assert not ok and first_bad == 1
    # Theta-palindromes alternate trivially
    ok, _ = occurrences_alternate(swap, bad, w(ab, "ab"))
    assert ok


def test_mirror_bounded_palindromicity(ab, tr, swap):
    fib = fibonacci_source().prefix(1000)
    ok, wit = mirror_bounded_palindromicity(tr, fib, w(ab, "ab"))
    assert ok and wit == []
    tm = ThueMorseSource().prefix(400)
    ok, wit = mirror_bounded_palindromicity(tr, tm, w(ab, "aab"))
    assert not ok
    assert all(x.symbols[:3] == w(ab, "aab").symbols for x in wit)
    assert all(x.symbols[-3:] == w(ab, "baa").symbols for x in wit)
    word = PeriodicSource(w(ab, "ab")).prefix(60)
    ok, _ = mirror_bounded_palindromicity(swap, word, w(ab, "a"))
    assert ok


def test_crw_scan_clean_on_fibonacci(tr):
    fib = fibonacci_source().prefix(600)
    report = crw_palindromicity_scan(tr, fib)
    assert not report.violations
    assert report.empirical_threshold == 1
    assert report.checked_factors > 0


def test_crw_scan_flags_thue_morse(tr):
    tm = ThueMorseSource().prefix(600)
    report = crw_palindromicity_scan(tr, tm)
    assert report.violations
    factor, complete_return = crw_words(report)[0]
    assert complete_return.symbols[:len(factor)] == factor.symbols
    assert report.empirical_threshold > 1
    d = report.describe()
    assert d["violations"][0]["factor"] == factor.text


def test_unioccurrent_lps_scan(ab, tr):
    abc = Alphabet(("a", "b", "c"))
    trc = Antimorphism.reversal(abc)
    assert unioccurrent_lps_scan(trc, Word.from_text(abc, "abca")) == 4
    assert unioccurrent_lps_scan(tr, w(ab, "abaab")) is None
    fib = fibonacci_source().prefix(3000)
    assert unioccurrent_lps_scan(tr, fib) is None
    tm = ThueMorseSource().prefix(3000)
    assert unioccurrent_lps_scan(tr, tm) is not None


def test_scans_agree_with_defect_zero_random(tr, ab):
    # defect 0 on the whole word means the scan finds no defect increment
    rng = random.Random(11)
    for _ in range(30):
        theta = random_involution(rng, rng.randint(1, 3))
        word = random_word(rng, theta, rng.randint(1, 60))
        from palrich.palindromes import defect
        scan = unioccurrent_lps_scan(theta, word)
        assert (scan is None) == (defect(theta, word) == 0)
