import ast
import itertools
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from palrich.core import (
    Alphabet,
    Antimorphism,
    InputError,
    Morphism,
    Word,
    gamma,
    occurrences,
    segment_coding,
)
from conftest import factor_set, inline_segments, random_involution, \
    random_word, w
from oracles import apply_antimorphism, apply_morphism, concat, \
    slice_occurrences, symbols_are_theta_palindrome


def test_alphabet_validation():
    with pytest.raises(InputError):
        Alphabet(())
    with pytest.raises(InputError):
        Alphabet(("a", "a"))
    with pytest.raises(InputError):
        Alphabet(("a", "b c"))
    assert len(Alphabet(("x", "[0]", "yy"))) == 3


def test_antimorphism_must_be_involution(ab):
    with pytest.raises(InputError):
        Antimorphism(Alphabet(("a", "b", "c")), (1, 2, 0))  # a 3-cycle
    assert Antimorphism(ab, (1, 0)).pairing[0] == 1


def test_apply_antimorphism_reversal(ab, tr):
    assert apply_antimorphism(tr, w(ab, "ab")).text == "ba"
    assert apply_antimorphism(tr, w(ab, "")).text == ""


def test_apply_antimorphism_swap(ab, swap):
    # E(ab) = E(b)E(a) = ab
    assert apply_antimorphism(swap, w(ab, "ab")).text == "ab"
    assert apply_antimorphism(swap, w(ab, "")).text == ""


def test_alphabet_mismatch_rejected(tr):
    other = Word.from_text(Alphabet(("x", "y")), "xy")
    with pytest.raises(InputError):
        apply_antimorphism(tr, other)


def test_is_theta_palindrome(ab, tr, swap):
    assert symbols_are_theta_palindrome(tr.pairing, w(ab, "aba").symbols)
    assert not symbols_are_theta_palindrome(swap.pairing, w(ab, "a").symbols)
    assert symbols_are_theta_palindrome(swap.pairing, w(ab, "abab").symbols)


def test_apply_morphism():
    src = Alphabet(("0", "1"))
    tgt = Alphabet(("a", "b"))
    phi = Morphism(src, tgt, (w(tgt, "ab"), w(tgt, "a")))
    assert apply_morphism(phi, Word.from_text(src, "01")).text == "aba"
    assert apply_morphism(phi, Word.from_text(src, "")).text == ""
    phi2 = Morphism(src, tgt, (w(tgt, "aa"), w(tgt, "")))
    assert apply_morphism(phi2, Word.from_text(src, "000")).text == "aaaaaa"


def test_gamma(ab, tr, swap):
    assert gamma(tr, w(ab, "abab")) == 0
    assert gamma(swap, w(ab, "ab")) == 1
    assert gamma(swap, w(ab, "a")) == 1  # one member of the pair suffices
    abcd = Alphabet(("a", "b", "c", "d"))
    th = Antimorphism.from_pairs(abcd, [("a", "b"), ("c", "c"), ("d", "d")])
    assert gamma(th, Word.from_text(abcd, "acd")) == 1


def test_occurrences(ab):
    assert occurrences(w(ab, "abaab"), w(ab, "a")) == [0, 2, 3]
    assert occurrences(w(ab, "aaa"), w(ab, "aa")) == [0, 1]
    abc = Alphabet(("a", "b", "c"))
    assert occurrences(Word.from_text(abc, "abaab"), Word.from_text(abc, "c")) == []
    with pytest.raises(InputError):
        occurrences(w(ab, "ab"), w(ab, ""))


def test_factor_set(ab):
    fs = factor_set(w(ab, "abab"), 2)
    assert {x.text for x in fs} == {"ab", "ba"}
    assert {x.text for x in factor_set(w(ab, "abab"), 0)} == {""}
    assert {x.text for x in factor_set(w(ab, "aaaa"), 3)} == {"aaa"}
    with pytest.raises(InputError):
        factor_set(w(ab, "ab"), 3)


@given(st.data())
def test_antimorphism_is_involution_on_words(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    word = random_word(rng, theta, data.draw(st.integers(0, 30)))
    assert apply_antimorphism(theta, apply_antimorphism(theta, word)) == word


@given(st.data())
def test_antimorphism_law_on_splits(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 4)))
    u = random_word(rng, theta, data.draw(st.integers(0, 15)))
    v = random_word(rng, theta, data.draw(st.integers(0, 15)))
    lhs = apply_antimorphism(theta, concat(u, v))
    rhs = concat(apply_antimorphism(theta, v), apply_antimorphism(theta, u))
    assert lhs == rhs


@given(st.data())
def test_theta_w_w_is_palindrome(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 3)))
    word = random_word(rng, theta, data.draw(st.integers(0, 12)))
    assert symbols_are_theta_palindrome(
        theta.pairing, concat(apply_antimorphism(theta, word), word).symbols)


@given(st.data())
def test_gamma_bound(data):
    rng = data.draw(st.randoms(use_true_random=False))
    theta = random_involution(rng, data.draw(st.integers(1, 6)))
    word = random_word(rng, theta, data.draw(st.integers(0, 40)))
    assert gamma(theta, word) <= len(theta.alphabet) // 2
    assert gamma(Antimorphism.reversal(theta.alphabet), word) == 0


def test_occurrences_exhaustive_small(ab):
    for n in range(0, 8):
        for bits in itertools.product((0, 1), repeat=n):
            word = Word(ab, bits)
            for m in range(1, 4):
                for fbits in itertools.product((0, 1), repeat=m):
                    f = Word(ab, fbits)
                    assert occurrences(word, f) == slice_occurrences(word.symbols, f.symbols)


def test_occurrences_needle_beyond_byte_range():
    # a needle letter above 255 in a haystack whose letters are all below
    # 256, over a 300-letter alphabet
    big = Alphabet(tuple(f"x{i}" for i in range(300)))
    hay = Word(big, (1, 2, 3, 1, 2))
    assert occurrences(hay, Word(big, (299,))) == []
    assert occurrences(hay, Word(big, (1, 2))) == [0, 3]
    assert occurrences(Word(big, (299, 1, 299)), Word(big, (299,))) == [0, 2]


def test_segment_coding_matches_inline_loop():
    rng = random.Random(17)
    for _ in range(300):
        theta = random_involution(rng, rng.randint(1, 3))
        word = random_word(rng, theta, rng.randint(0, 60))
        sym = word.symbols
        if rng.random() < 0.5 and sym:
            starts = occurrences(word, word.factor(0, rng.randint(1, min(3, len(sym)))))
        else:
            starts = sorted(rng.sample(range(len(sym) + 1),
                                       rng.randint(0, len(sym) + 1)))
        tail = rng.randint(0, 3)
        assert segment_coding(sym, starts, tail) == inline_segments(sym, starts, tail)


def test_library_has_no_unused_import():
    # __init__.py imports only to re-export
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "palrich"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_library_has_no_assert():
    # invariants raise InvariantError; assert vanishes under python -O
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "palrich"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
