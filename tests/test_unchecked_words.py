"""Words palrich builds itself skip the per-letter range check of
``Word(...)``: every generator's prefix equals the same word rebuilt through
the validating constructor, Thue-Morse by block doubling equals the per-letter
rule, letters from outside are still checked, and ``--len`` and word files
stop at ``MAX_LETTERS`` before any word is built."""
import functools
import random
from collections import Counter

import pytest

from palrich import cli
from palrich.core import (
    MAX_LETTERS,
    Alphabet,
    Antimorphism,
    InputError,
    Word,
    word_from_file,
)
from palrich.generators import (
    ClosureSource,
    DirectiveSequence,
    PeriodicSource,
    ThueMorseSource,
    episturmian_source,
    fibonacci_source,
    tribonacci_source,
)
from conftest import random_involution
from oracles import popcount_thue_morse


def test_thue_morse_doubling_matches_popcount_rule():
    src = ThueMorseSource()
    expected = popcount_thue_morse(1101)
    for n in range(1101):
        assert src.prefix(n).symbols == expected[:n]
    expected = popcount_thue_morse(2**18 + 1)
    for n in (2**18 - 1, 2**18, 2**18 + 1):
        assert src.prefix(n).symbols == expected[:n]


def _word(rng: random.Random, ab: Alphabet, lo: int, hi: int) -> Word:
    return Word(ab, tuple(rng.randrange(len(ab)) for _ in range(rng.randint(lo, hi))))


def _involution_300(rng: random.Random) -> Antimorphism:
    ab = Alphabet(tuple(f"x{i}" for i in range(300)))
    letters = list(range(300))
    rng.shuffle(letters)
    pairing = list(range(300))
    for a, b in zip(letters[:100:2], letters[1:100:2]):   # 50 pairs, 200 fixed
        pairing[a], pairing[b] = b, a
    return Antimorphism(ab, tuple(pairing))


def _sources():
    ab, abc = Alphabet(("a", "b")), Alphabet(("a", "b", "c"))
    yield "fibonacci", fibonacci_source()
    yield "tribonacci", tribonacci_source()
    yield "thue_morse", ThueMorseSource()
    yield "periodic", PeriodicSource(Word.from_text(abc, "abcab"))
    yield "episturmian", episturmian_source(DirectiveSequence.parse(abc, "aab", "bca"))
    yield "periodic-2", PeriodicSource(Word.from_text(ab, "b"))
    rng = random.Random(21)
    for trial in range(24):
        theta = (random_involution(rng, rng.randint(1, 4)) if trial < 20
                 else _involution_300(rng))
        ab = theta.alphabet
        d = DirectiveSequence(_word(rng, ab, 0, 3), _word(rng, ab, 1, 4))
        yield f"theta_standard-{trial}", ClosureSource(
            theta, _word(rng, ab, 0, 4), d)


@pytest.mark.parametrize("name, src", list(_sources()),
                         ids=[name for name, _ in _sources()])
def test_prefix_equals_the_validated_word(name, src):
    for n in (0, 1, 2, 17, 1000, 5000):
        w = src.prefix(n)
        rebuilt = Word(w.alphabet, tuple(w.symbols))   # range-checks every letter
        assert type(w) is Word and type(w.symbols) is tuple and len(w) == n
        assert w == rebuilt and hash(w) == hash(rebuilt)
        assert w.encoded == rebuilt.encoded and w.text == rebuilt.text
        with pytest.raises(AttributeError):
            w.symbols = ()
        if n:
            part = w.factor(1, n)
            assert part == Word(w.alphabet, w.symbols[1:])


def test_letters_from_outside_are_still_checked(tmp_path):
    ab = Alphabet(("a", "b"))
    for symbols in ((2,), (-1,), (0, 1, 5)):
        with pytest.raises(InputError, match="out of range"):
            Word(ab, symbols)
        with pytest.raises(InputError, match="out of range"):
            Word(alphabet=ab, symbols=symbols)
    with pytest.raises(InputError, match="not in alphabet"):
        Word.from_text(ab, "abc")
    with pytest.raises(InputError, match="not in alphabet"):
        Word.from_text(ab, "a b x1", tokens=True)
    with pytest.raises(InputError, match="bad letter token"):
        Word.parse("a b")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("abé".encode("latin-1"))
    with pytest.raises(InputError, match="cannot read"):
        word_from_file(str(latin1))


def test_text_and_files_stop_at_the_ceiling(tmp_path):
    assert len(Word.parse("ab" * (MAX_LETTERS // 2))) == MAX_LETTERS
    for text, tokens in (("a" * (MAX_LETTERS + 1), False),
                         ("x1 " * (MAX_LETTERS + 1), True)):
        with pytest.raises(InputError, match=f"{MAX_LETTERS + 1} letters, more than"):
            Word.parse(text, tokens=tokens)
        path = tmp_path / "long.txt"
        path.write_text(text + "\n")
        with pytest.raises(InputError, match=f"{MAX_LETTERS + 1} letters, more than"):
            word_from_file(str(path), tokens=tokens)


def _count_post_init(monkeypatch) -> Counter:
    # as perfbench counts core.word_constructions: the class's own
    # __post_init__ rebound on the class after import
    counts = Counter()
    post_init = vars(Word)["__post_init__"]

    @functools.wraps(post_init)
    def wrapper(self):
        counts["word"] += 1
        post_init(self)

    monkeypatch.setattr(Word, "__post_init__", wrapper)
    return counts


def test_generate_validates_no_word(monkeypatch, tmp_path):
    counts = _count_post_init(monkeypatch)
    out = tmp_path / "w.txt"
    assert cli.main(["generate", "--gen", "tribonacci", "--len", "262144",
                     "--out", str(out)]) == 0
    assert counts["word"] == 0
    text = out.read_text().strip()
    assert len(text) == 262144 and text.startswith("abacabaabacaba")


@pytest.mark.parametrize("command", [
    ["analyze", "--gen", "fibonacci"],
    ["rauzy", "--gen", "fibonacci", "--n", "1"],
    ["decompose", "--method", "theorem3", "--theta", "pairs:a-b", "--directive", "(ab)"],
    ["generate", "--gen", "thue_morse"],
], ids=["analyze", "rauzy", "theorem3", "generate"])
@pytest.mark.parametrize("length", [str(MAX_LETTERS + 1), "99999999999999999999999"])
def test_len_above_the_ceiling_exits_1_before_any_input(monkeypatch, capsys, command,
                                                        length):
    def no_input(*args, **kwargs):
        raise AssertionError("input built above the ceiling")

    monkeypatch.setattr(cli, "_load_input", no_input)
    monkeypatch.setattr(cli, "theorem3_pipeline", no_input)
    assert cli.main([*command, "--len", length]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --len must be at most {MAX_LETTERS}, got {length}\n"


def test_len_at_the_ceiling_passes_the_range_check():
    # parsed only: an analyze at 2**20 letters takes most of a gigabyte
    args = cli.build_parser().parse_args(
        ["analyze", "--gen", "fibonacci", "--len", str(MAX_LETTERS)])
    cli._check_ranges(args)
    assert args.len == MAX_LETTERS == 2**20


def test_word_file_above_the_ceiling_exits_1(capsys, tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("ab" * (MAX_LETTERS // 2) + "a\n")
    assert cli.main(["generate", "--word-file", str(path), "--len", "10"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith(f"error: {MAX_LETTERS + 1} letters, more than")
