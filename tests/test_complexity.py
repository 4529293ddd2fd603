import pytest

from palrich.core import Alphabet, Antimorphism, InputError, PreconditionError, Word
from palrich.complexity import (
    check_inequality2,
    closed_under_theta,
    complexity_table,
    default_safe_length,
    is_rich_by_T,
)
from palrich.generators import (
    PeriodicSource,
    ThueMorseSource,
    fibonacci_source,
    tribonacci_source,
)
from conftest import w


def test_default_safe_length():
    assert default_safe_length(6400) == 100
    assert default_safe_length(10) == 1
    assert default_safe_length(6400, divisor=32) == 200
    for divisor in (0, -3):
        with pytest.raises(InputError, match=f"^safe-length divisor must be "
                                             f"at least 1, got {divisor}$"):
            default_safe_length(6400, divisor)


def test_fibonacci_complexity_frozen(tr):
    fib = fibonacci_source().prefix(4000)
    table = complexity_table(tr, fib, 16)
    assert table.c[0] == 1 and table.p[0] == 1
    assert table.c[1] == 2 and table.c[2] == 3
    assert table.p[1] == 2 and table.p[2] == 1
    # Sturmian: C(n) = n + 1, P alternates 2, 1, and every gap closes
    assert all(table.c[n] == n + 1 for n in range(17))
    assert all(table.t(n) == 0 for n in range(1, 17))
    closed, witness = closed_under_theta(tr, fib, table.safe_length)
    assert closed and witness is None
    assert is_rich_by_T(table, closed)


def test_thue_morse_gap_frozen(tr):
    tm = ThueMorseSource().prefix(4000)
    table = complexity_table(tr, tm, 16)
    expected_t = [0, 0, 2, 2, 2, 2, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2]
    assert [table.t(n) for n in range(1, 17)] == expected_t
    closed, _ = closed_under_theta(tr, tm, table.safe_length)
    assert closed
    assert not is_rich_by_T(table, closed)


def test_unary_word(ab, tr):
    table = complexity_table(tr, w(ab, "a" * 50), 10)
    assert all(table.c[n] == 1 for n in range(11))
    assert all(table.p[n] == 1 for n in range(11))
    assert all(table.t(n) == 0 for n in range(1, 11))


def test_periodic_abc_not_closed():
    abc = Alphabet(("a", "b", "c"))
    trc = Antimorphism.reversal(abc)
    word = PeriodicSource(Word.from_text(abc, "abc")).prefix(300)
    closed, witness = closed_under_theta(trc, word, 4)
    assert not closed
    assert witness is not None and witness.text == "ab"
    table = complexity_table(trc, word, 4)
    assert table.t(1) == -1
    report = check_inequality2(table, closed)
    assert report["violations"] == [1]
    with pytest.raises(PreconditionError):
        is_rich_by_T(table, closed)


def test_check_inequality2_empty_for_closed(tr, swap, ab):
    word = PeriodicSource(w(ab, "ab")).prefix(200)
    for theta in (tr, swap):
        closed, _ = closed_under_theta(theta, word, 3)
        assert closed
        table = complexity_table(theta, word, 3)
        assert check_inequality2(table, closed)["violations"] == []


def test_table_validation(ab, tr):
    with pytest.raises(InputError):
        complexity_table(tr, w(ab, "ab"), 2)
    table = complexity_table(tr, w(ab, "aba"), 2)
    with pytest.raises(InputError):
        table.t(0)
    with pytest.raises(InputError):
        table.t(3)


def test_csv_and_describe(ab, tr):
    table = complexity_table(tr, w(ab, "abaab"), 2, source="demo")
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "n,C,P,T"
    assert lines[1].startswith("0,1,1,")
    assert len(lines) == 4
    d = table.describe()
    assert d["source"] == "demo"
    assert len(d["C"]) == 3 and len(d["T"]) == 2


def test_sturmian_and_tribonacci_complexity_at_64k():
    # 65536 letters: safe length 1024, rows up to 1025
    for src, slope in ((fibonacci_source(), 1), (tribonacci_source(), 2)):
        word = src.prefix(65536)
        theta = Antimorphism.reversal(word.alphabet)
        table = complexity_table(theta, word, 1024)
        assert table.c == tuple(slope * n + 1 for n in range(1026))
        assert closed_under_theta(theta, word, 1024) == (True, None)
