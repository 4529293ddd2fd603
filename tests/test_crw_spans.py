"""The complete-return scan keeps each violation as two (start, length) spans
of the scanned prefix, and its report spells them from one text of the
prefix: the spans against ``Alphabet.spell`` of each factor, the number of
``Word``s the scan builds, and a token-spelled report against the
``Word``-based oracle."""
import json
import random

import pytest

from palrich.cli import main, word_from_file
from palrich.core import Alphabet, Antimorphism, Word, occurrences
from palrich.generators import ThueMorseSource
from palrich.returns import crw_palindromicity_scan
from conftest import random_involution, random_word
from oracles import crw_words, letter_check_crw_scan


@pytest.mark.parametrize("letters", [
    ("a", "b", "c"),
    ("x1", "y22", "z"),
    tuple(f"t{i}" for i in range(300)),
], ids=["chars", "tokens", "300"])
def test_spell_spans_match_spell(letters):
    ab = Alphabet(letters)
    rng = random.Random(len(letters))
    for n in (0, 1, 2, 7, 60):
        symbols = tuple(rng.randrange(len(ab)) for _ in range(n))
        spans = [(a, m) for a in range(n + 1) for m in range(n - a + 1)]
        assert ab.spell_spans(symbols, spans) == \
            [ab.spell(symbols[a:a + m]) for a, m in spans]


def test_spans_are_first_occurrences():
    rng = random.Random(5)
    words = [(Antimorphism.reversal(Alphabet(("a", "b"))),
              ThueMorseSource().prefix(300))]
    for _ in range(200):
        theta = random_involution(rng, rng.randint(1, 3))
        words.append((theta, random_word(rng, theta, rng.randint(0, 40))))
    for theta, word in words:
        scan = crw_palindromicity_scan(theta, word)
        for spans, parts in zip(scan.violations, crw_words(scan), strict=True):
            for span, part in zip(spans, parts, strict=True):
                assert len(part) == span[1]
                assert occurrences(word, part)[0] == span[0]


def test_scan_builds_no_word_per_violation(monkeypatch):
    # every Word counts: the validated ones through __post_init__, the
    # library-built ones through Word.unchecked
    built = []
    post_init, unchecked = Word.__post_init__, Word.unchecked

    def counting(self):
        built.append(len(self))
        post_init(self)

    def counting_unchecked(cls, alphabet, symbols):
        built.append(len(symbols))
        return unchecked(alphabet, symbols)

    theta = Antimorphism.reversal(Alphabet(("a", "b")))
    words = [ThueMorseSource().prefix(n) for n in (200, 1600)]
    monkeypatch.setattr(Word, "__post_init__", counting)
    monkeypatch.setattr(Word, "unchecked", classmethod(counting_unchecked))
    counts = []
    for word in words:
        built.clear()
        report = crw_palindromicity_scan(theta, word)
        described = report.describe()
        counts.append((len(described["violations"]), len(built)))
    (few, words_few), (many, words_many) = counts
    assert many > 4 * few > 0
    assert words_few == words_many <= 2


def test_token_report_matches_word_oracle(tmp_path):
    prefix = ThueMorseSource().prefix(600)
    path = tmp_path / "tm.txt"
    path.write_text(" ".join(("x1", "y22")[s] for s in prefix.symbols) + "\n")
    out = tmp_path / "report.json"
    assert main(["analyze", "--word-file", str(path), "--tokens", "--len",
                 "600", "--out", str(out)]) == 0
    scan = json.loads(out.read_text())["returns"]["crw_scan"]
    word = word_from_file(str(path), tokens=True)
    oracle = letter_check_crw_scan(Antimorphism.reversal(word.alphabet), word)
    assert scan["violations"] and " " in scan["violations"][0]["factor"] + \
        scan["violations"][0]["complete_return"]
    assert scan == oracle.describe()
