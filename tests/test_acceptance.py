"""End-to-end acceptance suite.

Each criterion prints one line, "criterion N (<name>): PASS" or "... FAIL",
before asserting.  Run with -s to see the lines; parameters (seeds, lengths,
sampling distributions) are frozen so reruns are byte-for-byte comparable.
"""
import json
import random

import pytest

from palrich.core import (
    Alphabet,
    Antimorphism,
    Word,
    gamma,
)
from palrich.cli import main as cli_main
from palrich.complexity import (
    closed_under_theta,
    complexity_table,
    default_safe_length,
    is_rich_by_T,
)
from palrich.decompose import (
    richness_conditions_check,
    theorem1_decompose,
    theorem2_decompose,
    theorem3_pipeline,
    verify_eq3,
    verify_eq4,
)
from palrich.generators import (
    ClosureSource,
    DirectiveSequence,
    PeriodicSource,
    ThueMorseSource,
    fibonacci_source,
    tribonacci_source,
)
from palrich.palindromes import (
    PalIndex,
    defect,
    defect_profile,
)
from palrich.rauzy import build_graph, check_proposition1
from palrich.returns import unioccurrent_lps_scan
from conftest import factor_set, is_rich_finite, random_involution, random_word
from oracles import apply_morphism, count_theta_palindromes_expand, proposition1_holds


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"criterion {number} ({name}): {status}{tail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
TR_AB = Antimorphism.reversal(AB)
E_AB = Antimorphism.from_pairs(AB, [("a", "b")])
TH_ABC = Antimorphism.from_pairs(ABC, [("a", "b"), ("c", "c")])

# the three seeded-closure fixtures: exchange map without seed, mixed
# involution on three letters, reversal with a non-palindromic seed
TS_FIXTURES = (
    ("ts_exchange", E_AB, Word(AB, ()), DirectiveSequence.parse(AB, "", "ab")),
    ("ts_mixed3", TH_ABC, Word(ABC, ()), DirectiveSequence.parse(ABC, "", "abc")),
    ("ts_seeded_rev", TR_AB, Word.from_text(AB, "ab"),
     DirectiveSequence.parse(AB, "", "ab")),
)


def ts_prefix(i: int, n: int) -> tuple[Antimorphism, Word]:
    _name, theta, seed, d = TS_FIXTURES[i]
    return theta, ClosureSource(theta, seed, d).prefix(n)


def _rand_length(rng: random.Random, common: int, rare: int) -> int:
    return rng.randint(0, common) if rng.random() < 0.95 else rng.randint(0, rare)


def test_criterion_1_counting_bound():
    rng = random.Random(101)
    violations = 0
    total = 100_000
    for _ in range(total):
        theta = random_involution(rng, rng.randint(1, 4))
        word = random_word(rng, theta, _rand_length(rng, 40, 500))
        bound = len(word) + 1 - gamma(theta, word)
        if count_theta_palindromes_expand(theta, word) > bound:
            violations += 1
    # equality on rich fixtures
    equality = True
    for theta, word in ((TR_AB, fibonacci_source().prefix(1000)),
                        (Antimorphism.reversal(ABC),
                         tribonacci_source().prefix(1000))):
        n_pal = count_theta_palindromes_expand(theta, word)
        if n_pal != len(word) + 1 - gamma(theta, word):
            equality = False
    report(1, "palindrome counting bound", violations == 0 and equality,
           f"{total} random words, {violations} violations")


def test_criterion_2_index_oracle_equivalence():
    rng = random.Random(202)
    mismatches = 0
    total = 10_000
    for _ in range(total):
        k = rng.randint(1, 4)
        theta = random_involution(rng, k)
        cap = 300 if k == 1 else 2000
        word = random_word(rng, theta, min(_rand_length(rng, 150, 2000), cap))
        idx = PalIndex(theta, word.symbols)
        if idx.pal_count != count_theta_palindromes_expand(theta, word):
            mismatches += 1
    corpus = [
        (TR_AB, fibonacci_source().prefix(20_000)),
        (TR_AB, ThueMorseSource().prefix(20_000)),
        (Antimorphism.reversal(ABC), tribonacci_source().prefix(20_000)),
        (TR_AB, PeriodicSource(Word.from_text(AB, "aab")).prefix(2_000)),
    ]
    for i in range(len(TS_FIXTURES)):
        corpus.append(ts_prefix(i, 20_000))
    for theta, word in corpus:
        idx = PalIndex(theta, word.symbols)
        if idx.pal_count != count_theta_palindromes_expand(theta, word):
            mismatches += 1
    report(2, "palindrome index vs oracle", mismatches == 0,
           f"{total} random words + {len(corpus)} corpus prefixes, "
           f"{mismatches} mismatches")


def test_criterion_3_richness_route_agreement():
    # two independent richness routes: the complexity gap T(n) versus zero
    # defect of every factor up to safe_length (richness is hereditary, so
    # factors of maximal length plus the trailing suffix cover all shorter
    # factors)
    corpus = [
        ("fibonacci", TR_AB, fibonacci_source().prefix(8000), True),
        ("tribonacci", Antimorphism.reversal(ABC),
         tribonacci_source().prefix(8000), True),
        ("thue_morse", TR_AB, ThueMorseSource().prefix(8000), False),
    ]
    ok = True
    details = []
    for name, theta, word, expect_rich in corpus:
        safe = default_safe_length(len(word))
        closed, _ = closed_under_theta(theta, word, safe)
        if not closed:
            ok = False
            details.append(f"{name}: closure failed")
            continue
        table = complexity_table(theta, word, safe, safe_length=safe)
        by_t = is_rich_by_T(table, closed)
        factors = set(factor_set(word, safe))
        factors.add(word.factor(len(word) - safe, len(word)))
        by_defect = all(is_rich_finite(theta, f) for f in factors)
        if by_t != by_defect or by_t != expect_rich:
            ok = False
        if not expect_rich:
            first_bad = next(n for n in range(1, safe + 1) if table.t(n) != 0)
            details.append(f"{name}: first T(n)!=0 at n={first_bad}")
    report(3, "richness route agreement", ok, "; ".join(details))


def test_criterion_4_graph_criterion_biconditional():
    corpus = [
        (TR_AB, fibonacci_source().prefix(2000)),
        (Antimorphism.reversal(ABC), tribonacci_source().prefix(2000)),
        (TR_AB, ThueMorseSource().prefix(3000)),
        (TR_AB, PeriodicSource(Word.from_text(AB, "ab")).prefix(1000)),
        (TR_AB, PeriodicSource(Word.from_text(AB, "aab")).prefix(1000)),
    ]
    for i in range(len(TS_FIXTURES)):
        corpus.append(ts_prefix(i, 3000))
    disagreements = 0
    checked = 0
    for theta, word in corpus:
        safe = default_safe_length(len(word))
        table = complexity_table(theta, word, safe, safe_length=safe)
        for n in range(1, safe + 1):
            closed, _ = closed_under_theta(theta, word, n)
            if not closed:
                break
            res = check_proposition1(build_graph(theta, word, n), theta)
            checked += 1
            if (table.t(n) == 0) != proposition1_holds(res):
                disagreements += 1
    report(4, "graph criterion biconditional", disagreements == 0,
           f"{checked} (word, n) pairs, {disagreements} disagreements")


def test_criterion_5_seeded_closure_defect_stabilizes():
    ok = True
    details = []
    for i, (name, *_rest) in enumerate(TS_FIXTURES):
        theta, word = ts_prefix(i, 20_000)
        prof = defect_profile(theta, word)
        half = len(prof.values) // 2
        stable = prof.values[-1] == prof.values[half]
        ok = ok and stable
        details.append(f"{name}: defect={prof.values[-1]}")
    report(5, "seeded closure defect stabilizes", ok, "; ".join(details))


def test_criterion_6_return_word_recoding():
    fixtures = [("fibonacci", TR_AB, fibonacci_source().prefix(8000))]
    for i, (name, *_rest) in enumerate(TS_FIXTURES):
        theta, word = ts_prefix(i, 8000)
        fixtures.append((name, theta, word))
    rng = random.Random(606)
    ok = True
    details = []
    for name, theta, word in fixtures:
        coding = theorem2_decompose(theta, word)
        eq3 = all(verify_eq3(theta, coding.p, q) for q in coding.phi.images)
        b = coding.phi.source
        eq4 = all(
            verify_eq4(theta, coding.phi, coding.p,
                       Word(b, tuple(rng.randrange(len(b))
                                     for _ in range(rng.randint(0, 8)))))
            for _ in range(1000))
        refact = apply_morphism(coding.phi, coding.v_prefix).symbols == \
            word.symbols[:coding.occurrence_indices[-1]]
        v_defect = defect(Antimorphism.reversal(b), coding.v_prefix)
        good = eq3 and eq4 and refact and v_defect == 0
        ok = ok and good
        details.append(f"{name}: p={coding.p.text} M={coding.m} "
                       f"v_defect={v_defect}")
    report(6, "return word recoding", ok, "; ".join(details))


def test_criterion_7_simple_path_recoding():
    fixtures = [("fibonacci", TR_AB, fibonacci_source().prefix(8000))]
    for i, (name, *_rest) in enumerate(TS_FIXTURES):
        theta, word = ts_prefix(i, 8000)
        fixtures.append((name, theta, word))
    ok = True
    details = []
    for name, theta, word in fixtures:
        viol = unioccurrent_lps_scan(theta, word)
        n = min(2 * viol if viol else 1, len(word) // 4)
        coding = theorem1_decompose(theta, word, n)
        rich = richness_conditions_check(coding.theta2, coding.v_prefix, 12)
        refact = apply_morphism(coding.phi, coding.v_prefix).symbols == \
            word.symbols[coding.occurrence_indices[0]:coding.occurrence_indices[-1]]
        good = rich.both and refact
        ok = ok and good
        details.append(f"{name}: n={coding.n} B={len(coding.phi.source)}")
    # unary branch on periodic input
    per = PeriodicSource(Word.from_text(AB, "ab")).prefix(400)
    coding = theorem1_decompose(TR_AB, per, 2)
    unary_ok = coding.flags.get("periodic") and len(coding.phi.source) == 1
    ok = ok and bool(unary_ok)
    report(7, "simple path recoding", ok,
           "; ".join(details) + "; periodic unary branch ok")


def test_criterion_8_closure_pipeline():
    ok = True
    details = []
    for name, theta, seed, d in TS_FIXTURES:
        out = theorem3_pipeline(theta, seed, d, 8000)
        checks = out["checks"]
        good = (out["ok"] and checks["alphabet_bound"]
                and checks["returns_end_with_distinct_letters"]
                and checks["arnoux_rauzy"]["ok"])
        ok = ok and good
        details.append(f"{name}: M={checks['M']}<="
                       f"{checks['source_alphabet_size']} p={out['p']}")
    report(8, "closure pipeline", ok, "; ".join(details))


def test_criterion_9_mutation_sensitivity():
    rng = random.Random(2024)
    length = 2500
    word = fibonacci_source().prefix(length)
    samples = 200
    detected = 0
    for _ in range(samples):
        pos = rng.randrange(length)
        sym = list(word.symbols)
        sym[pos] ^= 1
        mutated = Word(AB, tuple(sym))
        if defect(TR_AB, mutated) > 0:
            detected += 1
            continue
        for n in range(1, 13):
            if not proposition1_holds(check_proposition1(build_graph(TR_AB, mutated, n), TR_AB)):
                detected += 1
                break
    rate = detected / samples
    report(9, "mutation sensitivity", rate >= 0.95,
           f"detected {detected}/{samples} ({rate:.1%})")


def test_criterion_10_determinism(tmp_path):
    fixtures = [
        ["analyze", "--gen", "fibonacci", "--len", "2000"],
        ["analyze", "--gen", "thue_morse", "--len", "2000"],
        ["analyze", "--gen", "theta_standard", "--theta", "pairs:a-b",
         "--directive", "(ab)", "--len", "2000"],
    ]
    ok = True
    for k, argv in enumerate(fixtures):
        outputs = []
        for run in range(3):
            path = tmp_path / f"rep_{k}_{run}.json"
            code = cli_main(argv + ["--out", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            ok = False
    report(10, "deterministic reports", ok,
           f"{len(fixtures)} fixtures x 3 runs")
