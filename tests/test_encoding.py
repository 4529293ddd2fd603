"""Every alphabet searched as one code point per letter: ``encode``,
``occurrences``, the complete-return scan and conditions (i) and (ii)
against the codec-registry and tuple-slice oracles, over 2, 255, 256, 257,
300, 57345 and 65537 letters.  The drawn letters sit where CPython's string
storage widens (255-257, 65535-65536), on the surrogates 55296-57343 that
``encode`` passes through, on the byte-order mark 65279, and on 10, a
newline, which a regular expression's ``.`` matches only under DOTALL."""
import json
import random

import pytest

from palrich.cli import main
from palrich.core import Alphabet, Antimorphism, Word, encode, occurrences
from palrich.decompose import _mirror_bounded_witnesses, richness_conditions_check
from palrich.generators import ClosureSource, DirectiveSequence, fibonacci_source
from palrich.returns import crw_palindromicity_scan
from oracles import crw_outcome, crw_words, every_letter_condition_ii, \
    letter_check_crw_scan, named_codec_encode, one_pass_condition_ii, \
    radius_table_condition_i, slice_occurrences

SIZES = (2, 255, 256, 257, 300, 57345, 65537)


def alphabet(k: int) -> Alphabet:
    # zero-padded, so the sorted tokens of a word file keep index order
    return Alphabet(tuple(f"x{i:05d}" for i in range(k)))


BOUNDARIES = (0, 1, 2, 10, 255, 256, 257, 55295, 55296, 57343, 57344, 65279,
              65535, 65536)


def pool(k: int) -> list[int]:
    # the letters around the code point boundaries that each alphabet has
    return sorted({a for a in BOUNDARIES if a < k} | {k - 1})


def random_theta(rng: random.Random, ab: Alphabet, letters: list[int]) -> Antimorphism:
    # pairs some of the drawn letters with each other, and the rest of the
    # alphabet at random, so the words hold Theta-palindromes
    pairing = list(range(len(ab)))
    for order in (rng.sample(letters, len(letters)),
                  rng.sample(range(len(ab)), len(ab))):
        free = [a for a in order if pairing[a] == a]
        while len(free) >= 2 and rng.random() < 0.7:
            a, b = free.pop(), free.pop()
            pairing[a], pairing[b] = b, a
    return Antimorphism(ab, tuple(pairing))


def random_words(rng: random.Random, ab: Alphabet, count: int, top: int):
    letters = pool(len(ab))
    for _ in range(count):
        used = rng.sample(letters, rng.randint(1, min(3, len(letters))))
        if rng.random() < 0.5:      # near-periodic words have long factors
            period = [rng.choice(used) for _ in range(rng.randint(1, 5))]
            sym = [period[i % len(period)] for i in range(rng.randint(0, top))]
            for _ in range(rng.randint(0, 3)):
                if sym:
                    sym[rng.randrange(len(sym))] = rng.choice(used)
        else:
            sym = [rng.choice(used) for _ in range(rng.randint(0, top))]
        yield Word(ab, tuple(sym))


@pytest.mark.parametrize("k", SIZES)
def test_encode_writes_one_code_point_per_letter(k):
    word = Word(alphabet(k), tuple(pool(k)) * 2)
    assert [ord(c) for c in word.encoded] == list(word.symbols)
    if k > 65279:   # no byte-order mark is read off the front
        assert encode((65279, 0, 65279)) == "\ufeff\x00\ufeff"


@pytest.mark.parametrize("k", SIZES)
def test_encode_matches_named_codec(k):
    # every pool letter first, a leading 65279 and lone surrogates included
    rng = random.Random(300 + k)
    letters = pool(k)
    for first in letters:
        for _ in range(5):
            sym = (first, *rng.choices(letters, k=rng.randint(0, 8)))
            assert encode(sym) == named_codec_encode(sym)
    assert encode(()) == named_codec_encode(()) == ""


@pytest.mark.parametrize("k", SIZES)
def test_encode_sorts_like_tuples(k):
    ab = alphabet(k)
    words = [Word(ab, (a, b)) for a in pool(k) for b in pool(k)]
    assert sorted(words, key=lambda u: u.encoded) == \
        sorted(words, key=lambda u: u.symbols)


@pytest.mark.parametrize("k", SIZES)
def test_occurrences_match_tuple_loop(k):
    rng = random.Random(k)
    ab = alphabet(k)
    for word in random_words(rng, ab, 150, 40):
        for _ in range(4):
            if word.symbols and rng.random() < 0.7:
                i = rng.randrange(len(word))
                f = word.factor(i, rng.randint(i + 1, min(len(word), i + 6)))
            else:
                f = Word(ab, tuple(rng.choice(pool(k))
                                   for _ in range(rng.randint(1, 3))))
            assert occurrences(word, f) == slice_occurrences(word.symbols, f.symbols)


@pytest.mark.parametrize("k", SIZES)
def test_crw_scan_matches_oracle(k):
    rng = random.Random(100 + k)
    ab = alphabet(k)
    for word in random_words(rng, ab, 60, 60):
        theta = random_theta(rng, ab, pool(k))
        assert crw_outcome(crw_palindromicity_scan(theta, word)) == \
            crw_outcome(letter_check_crw_scan(theta, word))


@pytest.mark.parametrize("k", SIZES)
def test_condition_i_matches_oracle(k):
    rng = random.Random(200 + k)
    ab = alphabet(k)
    for word in random_words(rng, ab, 40, 60):
        theta = random_theta(rng, ab, pool(k))
        for top in (1, 2, 4, 7):
            assert _mirror_bounded_witnesses(theta, word, top) == \
                radius_table_condition_i(theta, word, top)


@pytest.mark.parametrize("k", SIZES)
def test_condition_ii_matches_oracles(k):
    rng = random.Random(400 + k)
    ab = alphabet(k)
    cases = [(random_theta(rng, ab, pool(k)), word)
             for word in random_words(rng, ab, 40, 40) if word.symbols]
    if k > 10:  # a pair of newlines is the first failure
        a = max(pool(k))
        newline = Antimorphism(ab, tuple({10: a, a: 10}.get(x, x) for x in range(k)))
        cases.append((newline, Word(ab, (a, 10, 10, a))))
    for theta, word in cases:
        rep = richness_conditions_check(theta, word, 1)
        assert (rep.condition_ii, rep.condition_ii_witness) == \
            one_pass_condition_ii(theta, word) == every_letter_condition_ii(theta, word)
    if k > 10:
        assert rep.condition_ii_witness == "letter x00010 at index 2"


def test_crw_threshold_counts_letters():
    # one more than the longest violating factor, in letters whatever the
    # width: aa has the complete return aababbaa, which is no palindrome
    for k in SIZES:
        ab = alphabet(k)
        a, b = pool(k)[-2:]
        word = Word(ab, tuple((a, b)[c == "b"] for c in "aababbaa"))
        report = crw_palindromicity_scan(Antimorphism.reversal(ab), word)
        assert report.empirical_threshold == 3, k
        assert [(f.symbols, cr.symbols) for f, cr in crw_words(report)] == \
            [((a, a), word.symbols)]


def respell(value, tokens: dict):
    # a string made of the tokens alone, spelled over the two letters
    if isinstance(value, str):
        parts = value.split(" ")
        if value and all(p in tokens for p in parts):
            return "".join(tokens[p] for p in parts)
        return value
    if isinstance(value, list):
        return [respell(v, tokens) for v in value]
    if isinstance(value, dict):
        return {key: respell(v, tokens) for key, v in value.items()}
    return value


def decompose_report(tmp_path, text: str, theta: str, method: str):
    path = tmp_path / "word.txt"
    path.write_text(text)
    out = tmp_path / "report.json"
    code = main(["decompose", "--word-file", str(path), "--tokens", "--len",
                 "2000", "--theta", theta, "--method", method, "--n", "1",
                 "--out", str(out)])
    report = json.loads(out.read_text())
    del report["input"], report["antimorphism"]
    return code, report


@pytest.mark.parametrize("k", SIZES[1:])
@pytest.mark.parametrize("method", ["path", "return"])
@pytest.mark.parametrize("word", ["fibonacci", "ts_exchange"])
def test_decompose_reports_match_two_letters(tmp_path, k, method, word):
    # the same word spelled over letters 1 and k - 1 of k, with every token
    # listed after the prefix so that the file's alphabet keeps k letters
    ab = alphabet(k)
    a, b = ab.letters[1], ab.letters[k - 1]
    if word == "fibonacci":
        prefix = fibonacci_source().prefix(2000)
        theta_two = theta_many = "reversal"
    else:
        swap = Antimorphism.from_pairs(Alphabet(("a", "b")), [("a", "b")])
        prefix = ClosureSource(
            swap, Word(swap.alphabet, ()),
            DirectiveSequence.parse(swap.alphabet, "", "ab")).prefix(2000)
        theta_two, theta_many = "pairs:a-b", str(tmp_path / "theta.json")
        (tmp_path / "theta.json").write_text(json.dumps({
            "letters": list(ab.letters),
            "pairs": [[a, b]] + [[t, t] for t in ab.letters if t not in (a, b)]}))
    two = decompose_report(tmp_path, " ".join("ab"[s] for s in prefix.symbols),
                           theta_two, method)
    many = decompose_report(
        tmp_path, " ".join((a, b)[s] for s in prefix.symbols) + "\n"
        + " ".join(ab.letters), theta_many, method)
    assert many[0] == two[0]
    assert respell(many[1], {a: "a", b: "b"}) == two[1]
