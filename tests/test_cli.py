import contextlib
import io
import json
import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from palrich.cli import _parse_theta, main
from palrich.core import MAX_LETTERS, Alphabet, Antimorphism, InputError, Morphism, Word
from conftest import random_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_analyze_fibonacci(capsys):
    code, rep, _ = run_json(capsys, "analyze", "--gen", "fibonacci",
                            "--len", "2000")
    assert code == 0
    assert rep["schema_version"] == 1
    assert rep["defect"]["of_prefix"] == 0
    assert rep["rich_by_T"] is True
    assert rep["closure"]["closed"] is True
    assert rep["inequality2"]["violations"] == []
    assert rep["returns"]["unioccurrent_lps_last_violation"] is None
    for entry in rep["rauzy"].values():
        assert entry["loops_palindromic"] and entry["tree_after_loop_removal"]


def test_analyze_thue_morse(capsys):
    code, rep, _ = run_json(capsys, "analyze", "--gen", "thue_morse",
                            "--len", "2000")
    assert code == 0
    assert rep["defect"]["of_prefix"] > 0
    assert rep["rich_by_T"] is False
    assert rep["complexity"]["T"][2] == 2  # T(3)
    assert not rep["returns"]["crw_scan"]["violations"] == []


def test_analyze_deterministic(capsys):
    argv = ("analyze", "--gen", "fibonacci", "--len", "2000")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_analyze_csv_outputs(capsys, tmp_path):
    prof = tmp_path / "profile.csv"
    table = tmp_path / "table.csv"
    code, _, _ = run_json(capsys, "analyze", "--gen", "fibonacci",
                          "--len", "1000",
                          "--profile-csv", str(prof), "--table-csv", str(table))
    assert code == 0
    assert prof.read_text().splitlines()[0] == "prefix_length,defect,gamma,pal_count"
    assert table.read_text().splitlines()[0] == "n,C,P,T"


def test_analyze_word_file_with_swap(capsys, tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("abab\n")
    code, rep, _ = run_json(capsys, "analyze", "--word-file", str(f),
                            "--theta", "pairs:a-b", "--len", "100")
    assert code == 0
    assert rep["prefix_length"] == 4
    assert rep["defect"]["of_prefix"] == 0
    assert rep["defect"]["gamma"] == 1


def test_closure_witness_is_leftmost_shortest(capsys, tmp_path):
    # under reversal, abab and aaba are the length-4 factors of baabab with
    # an absent image; aaba starts first
    f = tmp_path / "w.txt"
    f.write_text("baabab\n")
    code, rep, _ = run_json(capsys, "analyze", "--word-file", str(f),
                            "--safe-divisor", "1")
    assert code == 0
    assert rep["closure"] == {"closed": False, "witness": "aaba",
                              "checked_up_to": 6}


def test_decompose_names_leftmost_witness(capsys, tmp_path):
    # the factors ca and ab of cccbcaab have an absent reversal; ca starts
    # first
    f = tmp_path / "w.txt"
    f.write_text("cccbcaab\n")
    code, rep, _ = run_json(capsys, "decompose", "--word-file", str(f),
                            "--method", "path", "--n", "2")
    assert code == 2
    assert rep["payload"] == {"n": 2, "witness": "ca"}


def test_decompose_closure_failure_exit_2(capsys):
    # the tribonacci factors are closed under reversal, not under a <-> b:
    # every letter has its image, but Theta(ac) = cb is no factor
    code, rep, _ = run_json(capsys, "decompose", "--gen", "tribonacci",
                            "--len", "400", "--theta", "pairs:a-b,c-c",
                            "--method", "path", "--n", "2")
    assert code == 2
    assert rep["error"] == "factor set is not closed under Theta at the coding length"
    assert rep["payload"] == {"n": 2, "witness": "ac"}


def test_rauzy_command_and_dot(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, rep, _ = run_json(capsys, "rauzy", "--gen", "fibonacci",
                            "--len", "2000", "--n", "1", "--dot", str(dot))
    assert code == 0
    assert rep["vertices"] == 1 and rep["edges"] == 2 and rep["loops"] == 2
    text = dot.read_text()
    assert text.startswith("graph rauzy {")
    code2, rep2, _ = run_json(capsys, "rauzy", "--gen", "fibonacci",
                              "--len", "2000", "--n", "1", "--dot", str(dot))
    assert dot.read_text() == text and rep2 == rep


def test_rauzy_refuses_unsafe_n(capsys):
    code, _, err = run(capsys, "rauzy", "--gen", "fibonacci",
                       "--len", "200", "--n", "50")
    assert code == 1
    assert "safe length" in err


def test_decompose_path(capsys):
    code, rep, _ = run_json(capsys, "decompose", "--gen", "fibonacci",
                            "--len", "2000", "--method", "path", "--n", "1")
    assert code == 0
    assert rep["ok"] is True
    assert rep["coding"]["alphabet"] == {"[0]": "aba", "[1]": "aa"}
    assert rep["richness_conditions"]["condition_i"]


def test_decompose_return(capsys):
    code, rep, _ = run_json(capsys, "decompose", "--gen", "fibonacci",
                            "--len", "4000", "--method", "return")
    assert code == 0
    assert rep["ok"] is True
    assert rep["coding"]["p"] == "a"
    assert rep["eq4"]["failures"] == 0
    assert rep["derived_defect"] == 0


def test_decompose_return_inconclusive_exit_2(capsys):
    code, rep, _ = run_json(capsys, "decompose", "--gen", "thue_morse",
                            "--len", "2000", "--method", "return")
    assert code == 2
    assert "error" in rep


def test_decompose_theorem3(capsys):
    code, rep, _ = run_json(capsys, "decompose", "--method", "theorem3",
                            "--theta", "pairs:a-b", "--directive", "(ab)",
                            "--len", "8000")
    assert code == 0
    assert rep["ok"] is True
    assert rep["p"] == "abbaab"
    assert rep["checks"]["M"] == 2


def test_generate(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "--gen", "thue_morse", "--len", "8")
    assert code == 0
    assert out == "abbabaab\n"
    out_file = tmp_path / "w.txt"
    code, _, _ = run(capsys, "generate", "--gen", "theta_standard",
                     "--theta", "pairs:a-b", "--directive", "(ab)",
                     "--len", "14", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == "abbaababbaabba\n"


@pytest.mark.parametrize("argv", [
    ["--gen", "theta_standard", "--theta", "pairs:{a}-{b}",
     "--directive", "({a}{_}{b})"],
    ["--gen", "theta_standard", "--theta", "pairs:{a}-{b}",
     "--seed-word", "{a}{_}{a}", "--directive", "{b}{_}({a}{_}{b})"],
    ["--gen", "episturmian", "--directive", "{a}{_}({a}{_}{b})"],
    ["--gen", "periodic:{a}{_}{b}{_}{b}"],
])
def test_tokens_split_every_word_argument(capsys, argv):
    # the word over the letters x1 and y2 is the word over a and b, mapped
    def generate(*options, **spelling):
        code, out, _ = run(capsys, "generate", "--len", "20", *options,
                           *(arg.format(**spelling) for arg in argv))
        assert code == 0
        return out.split() if options else list(out.strip())
    plain = generate(a="a", b="b", _="")
    tokens = generate("--tokens", a="x1", b="y2", _=" ")
    assert tokens == [{"a": "x1", "b": "y2"}[c] for c in plain]


def test_multi_character_letters_need_tokens(capsys):
    # without --tokens a directive letter is one character
    code, _, err = run(capsys, "generate", "--gen", "theta_standard",
                       "--theta", "pairs:x1-y2", "--directive", "(x1 y2)",
                       "--len", "20")
    assert code == 1
    assert err == "error: letter 'x' not in alphabet ('x1', 'y2')\n"


def test_bad_inputs_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "--gen", "nope", "--len", "100")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "analyze", "--word-file", "/nonexistent/x",
                       "--len", "100")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--len", "100")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--gen", "fibonacci", "--len", "abc"],
    ["decompose", "--gen", "fibonacci", "--method", "nope"],
    ["rauzy", "--gen", "fibonacci"],
    ["analyze", "--gen", "fibonacci", "--bogus"],
    [],
])
def test_usage_errors_exit_1(capsys, argv):
    # exit 2 is reserved for an inconclusive decomposition
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["decompose", "--method", "path"],
    ["generate"],
], ids=["decompose", "generate"])
def test_safe_divisor_only_on_analyze_and_rauzy(capsys, command):
    # decompose and generate never read it, so they do not accept it
    code, err = run_error(capsys, *command, "--gen", "fibonacci", "--len", "100",
                          "--safe-divisor", "4")
    assert code == 1 and "unrecognized arguments: --safe-divisor 4" in err
    code, _, _ = run(capsys, "rauzy", "--gen", "fibonacci", "--len", "100",
                     "--n", "1", "--safe-divisor", "4")
    assert code == 0


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["analyze", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_help_names_the_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())   # argparse rewraps it
    for code in ("0 success", "1 input error", "2 inconclusive",
                 "3 internal invariant violated"):
        assert code in text


def test_out_flag_writes_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "analyze", "--gen", "fibonacci",
                          "--len", "500", "--out", str(out))
    assert code == 0 and stdout == ""
    rep = json.loads(out.read_text())
    assert rep["defect"]["of_prefix"] == 0


def run_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return code, err


@pytest.mark.parametrize("make_input, message", [
    (lambda d: ["--gen", "fibonacci", "--theta", str(d / "bad.json")],
     "not valid JSON"),
    (lambda d: ["--word-file", str(d)], "Is a directory"),
    (lambda d: ["--word-file", str(d / "latin1.txt")], "can't decode"),
    (lambda d: ["--word-file", str(d / "empty.txt")], "holds no letters"),
    (lambda d: ["--gen", "fibonacci", "--safe-divisor", "0"],
     "--safe-divisor must be at least 1"),
    (lambda d: ["--gen", "fibonacci", "--len", "0"], "--len must be at least 1"),
    (lambda d: ["--gen", "fibonacci", "--len", "-5"], "--len must be at least 1"),
], ids=["theta-json", "word-file-dir", "word-file-not-utf8", "word-file-empty",
        "safe-divisor-0", "len-0", "len-negative"])
def test_analyze_input_errors_exit_1(capsys, tmp_path, make_input, message):
    (tmp_path / "bad.json").write_text('{"letters": ["a", "b"],')
    (tmp_path / "latin1.txt").write_bytes("abé".encode("latin-1"))
    (tmp_path / "empty.txt").write_text(" \n")
    code, err = run_error(capsys, "analyze", "--len", "100",
                          *make_input(tmp_path))
    assert code == 1 and message in err


# id: (pairs, error line with a word, error line without one); with no
# error line, a word's report is that of pairs:a-b
THETA_CASES = {
    "unlisted-letter": ("a-b", "letters missing from pairing: ['c']",
                        "letter 'c' not in alphabet ('a', 'b')"),
    "extra-letter": ("a-b,c-c,d-d", "letter 'd' not in alphabet ('a', 'b', 'c')",
                     None),
    "paired-twice": ("a-b,a-c", "letter 'a' paired twice",
                     "letter 'a' paired twice"),
    "malformed-pair": ("a-b,c", "bad pair 'c'; expected like a-b or c-c",
                       "bad pair 'c'; expected like a-b or c-c"),
    "reversed-order": ("b-a", None, None),
    "consistent-repeat": ("a-b,b-a", None, None),
}


@pytest.mark.parametrize("case", THETA_CASES)
@pytest.mark.parametrize("spelling", ["pairs", "config"])
def test_theta_must_list_exactly_the_word_letters(capsys, tmp_path, spelling, case):
    # unlisted letters are not taken as fixed points; a config naming the
    # letters and pairs of a pairs: spec gives the same exit and the same
    # report or error line, with a word (analyze) and without one (theorem3,
    # whose alphabet the letters set, in their order)
    spec, with_word, without_word = THETA_CASES[case]
    pairs = [part.split("-", 1) for part in spec.split(",")]
    letters = list(dict.fromkeys(chain.from_iterable(pairs)))
    theta = "pairs:" + spec
    if spelling == "config":
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({"letters": letters, "pairs": pairs}))
        theta = str(path)
    gen, directive = ("tribonacci", "(abc)") if with_word else ("fibonacci", "(ab)")
    got = run(capsys, "analyze", "--gen", gen, "--len", "200", "--theta", theta)
    if with_word:
        assert got == (1, "", f"error: {with_word}\n")
    else:
        assert got == run(capsys, "analyze", "--gen", "fibonacci", "--len", "200",
                          "--theta", "pairs:a-b")
    theorem3 = ("decompose", "--method", "theorem3", "--directive", directive,
                "--len", "300", "--theta")
    got = run(capsys, *theorem3, theta)
    assert got == run(capsys, *theorem3, "pairs:" + spec)
    if without_word:
        assert got == (1, "", f"error: {without_word}\n")
    else:
        assert got[0] == 0 and json.loads(got[1])["source"]["letters"] == letters


def test_theta_config_over_max_letters_exits_1(capsys, tmp_path):
    # without a word the config's letters set the alphabet, which holds at
    # most MAX_LETTERS letters, one code point each
    letters = [str(i) for i in range(MAX_LETTERS + 1)]
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"letters": letters, "pairs": [letters[:2]]}))
    del letters
    code, err = run_error(capsys, "decompose", "--method", "theorem3",
                          "--directive", "(01)", "--len", "300", "--theta", str(path))
    assert code == 1 and f"more than the {MAX_LETTERS} allowed" in err


def test_antimorphism_config_roundtrip(tmp_path):
    # the config reader checks the JSON's shape, Antimorphism.from_pairs the
    # pairing; with a word, the letters are the word's in any order
    path = tmp_path / "theta.json"

    def read(cfg, alphabet=None):
        path.write_text(json.dumps(cfg))
        return _parse_theta(str(path), alphabet)
    th = read({"letters": ["a", "b", "c"], "pairs": [["a", "b"], ["c", "c"]]})
    assert th.pairing == (1, 0, 2)
    ab = Alphabet(("a", "b"))
    assert read({"letters": ["b", "a"], "pairs": [["b", "a"]]}, ab) == \
        Antimorphism.from_pairs(ab, [("a", "b")])
    for bad, alphabet, message in (
            ({"letters": ["a", "b"], "pairs": [["a", "b"], ["a", "a"]]}, None,
             "letter 'a' paired twice"),
            ({"letters": ["a", "b"], "pairs": [["a", "a"]]}, None,
             "letters missing from pairing: ['b']"),
            ({"letters": ["a", "b", "c"], "pairs": [["a", "b"]]}, None,
             "letters missing from pairing: ['c']"),
            ({"letters": ["a", "b", "a"], "pairs": [["a", "b"]]}, ab,
             "duplicate letter: 'a'"),
            ({"letters": ["a"], "pairs": [["a", "b"]]}, ab,
             "antimorphism letters ['a'] are not the word's letters ['a', 'b']"),
            ([], None, "needs 'letters' and 'pairs'"),
            ({"letters": 5, "pairs": []}, None, "must be a list of strings"),
            ({"letters": ["a"], "pairs": "aa"}, None, "must be a list of strings"),
            ({"letters": ["a"], "pairs": [[1, 1]]}, None, "must be a list of strings")):
        with pytest.raises(InputError) as exc:
            read(bad, alphabet)
        assert message in str(exc.value)


def test_rauzy_n_zero_exit_1(capsys):
    code, err = run_error(capsys, "rauzy", "--gen", "fibonacci",
                          "--len", "200", "--n", "0")
    assert code == 1 and "--n must be at least 1" in err


def test_decompose_max_factor_len_below_1_exit_1(capsys):
    # condition (i) was reported true after checking no length at all
    code, out, err = run(capsys, "decompose", "--gen", "fibonacci", "--len", "400",
                         "--method", "path", "--n", "1", "--max-factor-len", "-5")
    assert code == 1 and out == ""
    assert err == "error: --max-factor-len must be at least 1, got -5\n"


def test_analyze_max_rauzy_n_below_1_exit_1(capsys):
    # the rauzy block was silently empty
    code, out, err = run(capsys, "analyze", "--gen", "fibonacci", "--len", "400",
                         "--max-rauzy-n", "-3")
    assert code == 1 and out == ""
    assert err == "error: --max-rauzy-n must be at least 1, got -3\n"


def _corrupt_morphism(monkeypatch):
    # the check reads phi's images: the last letter of the first one changes
    def corrupted(source, target, images):
        first = images[0].symbols
        bad = first[:-1] + ((first[-1] + 1) % len(target),)
        return Morphism(source, target, (Word(target, bad),) + images[1:])
    monkeypatch.setattr("palrich.decompose.Morphism", corrupted)


@pytest.mark.parametrize("args", [
    ("--gen", "fibonacci", "--method", "path"),
    ("--gen", "fibonacci", "--method", "return"),
    ("--gen", "periodic:ab", "--method", "path"),
    ("--method", "theorem3", "--theta", "pairs:a-b", "--directive", "(ab)")],
    ids=["path", "return", "periodic", "theorem3"])
def test_refactorization_mismatch_exit_3(capsys, monkeypatch, args):
    # every recoding, the unary coding of a periodic word included, is
    # checked by the one refactorization step
    _corrupt_morphism(monkeypatch)
    code, err = run_error(capsys, "decompose", *args, "--len", "400")
    assert code == 3
    assert err.startswith("error: internal invariant violated: ")
    assert "refactorization mismatch" in err


def test_condition_ii_witness_from_word_file(capsys, tmp_path):
    # v = [0] [1] [1] [1] [2] [3] ... with Theta2 pairing [1] <-> [3] and
    # fixing [0] and [2]: [1] follows itself first at index 2
    path = tmp_path / "w.txt"
    path.write_text("baaaabbaaaabbaaaabbaaaabbaaaabbaaaabbabaabb")
    code, rep, _ = run_json(capsys, "decompose", "--word-file", str(path),
                            "--theta", "pairs:a-b", "--method", "path", "--n", "1")
    assert code == 2
    assert rep["richness_conditions"]["condition_ii"] is False
    assert rep["richness_conditions"]["condition_ii_witness"] == "letter [1] at index 2"


def test_memory_exhaustion_exit_1(capsys, monkeypatch):
    # a host with a memory limit gets one error line, not a traceback
    def exhausted(args):
        raise MemoryError
    monkeypatch.setattr("palrich.cli.cmd_analyze", exhausted)
    code, out, err = run(capsys, "analyze", "--gen", "fibonacci", "--len", "100")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_last_increment_index_is_lps_scan_result(capsys, tmp_path):
    # last_increment_index must still be the last k with d_k > d_{k-1},
    # read here from the defect profile CSV
    rng = random.Random(23)
    profile = tmp_path / "profile.csv"
    for _ in range(12):
        ab = Alphabet(tuple("abc"[:rng.randint(1, 3)]))
        word = random_word(rng, Antimorphism.reversal(ab), rng.randint(1, 40))
        path = tmp_path / "w.txt"
        path.write_text(word.text)
        code, rep, _ = run_json(capsys, "analyze", "--word-file", str(path),
                                "--len", "100", "--profile-csv", str(profile))
        assert code == 0
        d = [int(line.split(",")[1])
             for line in profile.read_text().splitlines()[1:]]
        expected = max((k for k in range(1, len(d)) if d[k] > d[k - 1]),
                       default=None)
        assert rep["defect"]["last_increment_index"] == expected
        assert rep["returns"]["unioccurrent_lps_last_violation"] == expected


@pytest.mark.parametrize("argv", [
    ["generate", "--gen", "thue_morse", "--len", "8", "--out", "{dir}"],
    ["generate", "--gen", "thue_morse", "--len", "8", "--out", "{dir}/no/w.txt"],
    ["analyze", "--gen", "fibonacci", "--len", "200", "--out", "{dir}"],
    ["analyze", "--gen", "fibonacci", "--len", "200", "--profile-csv", "{dir}"],
    ["analyze", "--gen", "fibonacci", "--len", "200", "--table-csv", "{dir}"],
    ["rauzy", "--gen", "fibonacci", "--len", "200", "--n", "1", "--dot", "{dir}"],
], ids=["generate-out-dir", "generate-out-missing-dir", "analyze-out-dir",
        "analyze-profile-csv-dir", "analyze-table-csv-dir", "rauzy-dot-dir"])
def test_unwritable_output_exit_1(capsys, tmp_path, argv):
    code, err = run_error(capsys, *(a.replace("{dir}", str(tmp_path)) for a in argv))
    assert code == 1 and f"cannot write {tmp_path}" in err


def _optional_flags(data, options) -> list:
    argv = []
    for flag, values in options:
        if data.draw(st.booleans()):
            argv += [flag, str(data.draw(values))]
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_argv_contract(tmp_path_factory, data):
    # any argv ends in exit 0-3 (exit 1 with a one-line error, usage errors
    # included), never in a traceback or an argparse exit
    base = tmp_path_factory.getbasetemp() / "contract"
    base.mkdir(exist_ok=True)
    (base / "w.txt").write_text("abaababaab\n")
    paths = st.sampled_from([str(base / "out.txt"), str(base),
                             str(base / "missing" / "out.txt")])
    command = data.draw(st.sampled_from(["analyze", "rauzy", "decompose",
                                         "generate"]))
    argv = [command, "--len", data.draw(st.one_of(st.integers(-2, 300).map(str),
                                                  st.just("abc"),
                                                  st.just(str(MAX_LETTERS + 1)))),
            *data.draw(st.sampled_from([
                ["--gen", gen] for gen in (
                    "fibonacci", "tribonacci", "thue_morse", "periodic:ab",
                    "periodic:", "episturmian", "theta_standard", "nope")
            ] + [
                ["--word-file", path] for path in (
                    str(base / "w.txt"), str(base), str(base / "missing.txt"))
            ]))]
    argv += _optional_flags(data, [
        ("--theta", st.sampled_from(["reversal", "pairs:a-b", "pairs:a-a,b-b",
                                     "pairs:a-b,c-c", "pairs:ab",
                                     str(base / "missing.json")])),
        ("--directive", st.sampled_from(["(ab)", "a(bc)", "(abc)", "()", "x"])),
        ("--seed-word", st.sampled_from(["", "ab", "c"])),
        ("--safe-divisor", st.integers(-1, 80)),
        ("--out", paths),
    ])
    if command == "rauzy":
        argv += ["--n", str(data.draw(st.integers(-1, 8)))]
    if command == "decompose":
        argv += ["--method", data.draw(st.sampled_from(["path", "return",
                                                         "theorem3", "nope"]))]
    argv += _optional_flags(data, {
        "analyze": [("--max-rauzy-n", st.integers(0, 16)),
                    ("--profile-csv", paths), ("--table-csv", paths)],
        "rauzy": [("--dot", paths)],
        "decompose": [("--n", st.integers(-1, 8)),
                      ("--max-factor-len", st.integers(0, 8))],
        "generate": [],
    }[command])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
