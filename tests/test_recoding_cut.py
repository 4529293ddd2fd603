"""A recoding is phi and the cut: the covered span is read from the cut.

Both recodings cut the prefix at consecutive occurrences, and v has one
letter per pair of neighbouring cut points, so there are ``len(v) + 1`` cut
points on every branch; the reported covered span is the first and the last.
"""
import random

import pytest

import palrich.decompose
from palrich.core import Alphabet, Antimorphism, InvariantError, Morphism, Word
from palrich.decompose import (
    DecomposeError,
    _recode,
    theorem1_decompose,
    theorem2_decompose,
)
from palrich.generators import PeriodicSource
from conftest import corpus
from oracles import apply_morphism, tuple_refactorization_holds


def assert_cut(coding, prefix):
    cut = coding.occurrence_indices
    assert len(cut) == len(coding.v_prefix) + 1
    assert apply_morphism(coding.phi, coding.v_prefix).symbols == \
        prefix.symbols[cut[0]:cut[-1]]
    assert coding.tail_length == len(prefix) - cut[-1]


@pytest.mark.parametrize("period, n", [("aab", 2), ("aab", 3), ("ab", 1), ("ab", 3)])
def test_periodic_branch_covers_its_cut(period, n):
    word = PeriodicSource(Word.parse(period)).prefix(400)
    coding = theorem1_decompose(Antimorphism.reversal(word.alphabet), word, n)
    assert coding.flags["periodic"]
    cut = coding.occurrence_indices
    end = 400 // len(period) * len(period)  # 399 for aab, as CI checks
    assert coding.describe()["covered"] == [cut[0], cut[-1]] == [0, end]
    assert_cut(coding, word)


@pytest.mark.parametrize("name, theta, word", list(corpus(4000)),
                         ids=[name for name, _, _ in corpus(0)])
def test_corpus_codings_cover_their_cut(name, theta, word):
    for n in (1, 2, 5):
        coding = theorem1_decompose(theta, word, n)
        cut = coding.occurrence_indices
        assert coding.describe()["covered"] == [cut[0], cut[-1]]
        assert_cut(coding, word)
    if name == "thue_morse":    # infinite defect: no qualifying prefix
        with pytest.raises(DecomposeError):
            theorem2_decompose(theta, word)
        return
    coding = theorem2_decompose(theta, word)
    assert coding.occurrence_indices[0] == 0
    assert coding.describe()["covered_length"] == coding.occurrence_indices[-1]
    assert_cut(coding, word)


def test_periodic_branch_lists_no_occurrences(monkeypatch):
    # theorem 1 cuts at n before it searches a coding length by occurrences,
    # so a word without special factors at n never reaches that search
    real, calls = palrich.decompose.occurrences, []

    def counted(word, factor):
        calls.append(len(factor))
        return real(word, factor)

    monkeypatch.setattr(palrich.decompose, "occurrences", counted)
    word = PeriodicSource(Word.parse("ab")).prefix(4000)
    coding = theorem1_decompose(Antimorphism.reversal(word.alphabet), word, 1)
    assert coding.flags["periodic"]
    assert calls == []


def test_text_check_matches_tuple_check():
    # _recode compares the images' joined texts with the covered text; the
    # oracle compares symbol tuples.  Each path coding of the corpus is
    # recoded again from its segments, as cut and with one letter changed
    # (inside an image, or in the overlap that phi drops), or with v's first
    # two letters swapped.
    rng = random.Random(29)
    outcomes = set()
    for _, theta, word in corpus(4000):
        coding = theorem1_decompose(theta, word, 1)
        n, codes, cut = coding.n, coding.v_prefix.symbols, coding.occurrence_indices
        segments = [e.symbols for e in coding.path_table.values()]
        letters = coding.phi.source.letters
        trials = [(segments, codes), (segments, codes[1::-1] + codes[2:])]
        for _ in range(6):
            k = rng.randrange(len(segments))
            e, j = segments[k], rng.randrange(len(segments[k]))
            bad = e[:j] + ((e[j] + 1) % len(word.alphabet),) + e[j + 1:]
            trials.append((segments[:k] + [bad] + segments[k + 1:], codes))
        for segs, v in trials:
            phi = Morphism(Alphabet(letters), word.alphabet, tuple(
                Word(word.alphabet, e[:len(e) - n]) for e in segs))
            holds = tuple_refactorization_holds(word, phi, v, cut)
            outcomes.add(holds)
            if holds:
                assert _recode(word, segs, v, n, letters, cut, "simple-path")[0] == phi
            else:
                with pytest.raises(InvariantError, match="simple-path refactorization"):
                    _recode(word, segs, v, n, letters, cut, "simple-path")
    assert outcomes == {True, False}
