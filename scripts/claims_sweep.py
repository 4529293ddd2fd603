#!/usr/bin/env python3
"""The source paper's recoding claims on two families of small words.

The first family is the Θ-standard words with seed at 2000 letters for every
involution over 2 and 3 letters, every seed of 0-3 letters and every
directive period of 2-3 letters with at least two distinct letters: 5040
words.  Each is recoded three ways, through ``palrich decompose`` run in
process: ``--method path --n 1`` (Theorem 1), ``--method return`` (Theorem 2)
and ``--method theorem3``.

The second family is the periodic words at 2000 letters whose period of 1-8
letters over 2 letters or 1-6 over 3 uses every letter, under every
involution whose factor set is closed up to the safe length: 998 words.
Each is recoded by ``--method path --n 1`` and ``--method return``.

The output is one JSON object counting, per method and alphabet size, the
outcomes by exit code: "ok" (0), "not ok" (2: the recoding's checks fail on
the prefix, or it is inconclusive), "input error" (1) and "invariant
violated" (3); the second family's counts sit under "periodic".  It also
counts the words of both families that break the identity sum T(n) =
2 * defect over 1 <= n <= safe length, or one of its preconditions: closed
up to the safe length, T(safe) = 0, last defect increment at most a quarter
of the way in.  Closure and identity are read in process from the library
calls behind ``palrich analyze``, whose complete-return scan would take
about a second on each periodic word.

The counts at 2000 letters are path 1812 not ok (120 over 2 letters, 1692
over 3), return 0 not ok, theorem3 576 not ok (all over 3 letters); periodic
path 84 not ok (66 over 2 letters, 18 over 3), periodic return 0 not ok; 0
identity failures.  Every other run is ok.

Usage: python3 scripts/claims_sweep.py
"""
import contextlib
import io
import itertools
import json
import sys

from palrich.cli import main
from palrich.complexity import (
    closed_under_theta,
    complexity_table,
    default_safe_length,
)
from palrich.core import Alphabet, Antimorphism, Word
from palrich.generators import ClosureSource, DirectiveSequence, PeriodicSource
from palrich.palindromes import defect_profile

LENGTH = 2000
METHODS = {"path": ["--gen", "theta_standard", "--method", "path", "--n", "1"],
           "return": ["--gen", "theta_standard", "--method", "return"],
           "theorem3": ["--method", "theorem3"]}
PERIODIC_METHODS = {"path": ["--method", "path", "--n", "1"],
                    "return": ["--method", "return"]}
MAX_PERIOD = {2: 8, 3: 6}   # longest period per alphabet size
OUTCOMES = {0: "ok", 1: "input error", 2: "not ok", 3: "invariant violated"}


def involutions(letters: str):
    """The letter pairs of the reversal and of each involution with one
    2-cycle: every involution over 2 or 3 letters."""
    yield [(x, x) for x in letters]
    for x, y in itertools.combinations(letters, 2):
        yield [(x, y)] + [(z, z) for z in letters if z not in (x, y)]


def words(letters: str, seed_lengths):
    """(theta pairs, seed, period) of every input over ``letters``."""
    periods = ["".join(p) for m in (2, 3)
               for p in itertools.product(letters, repeat=m) if len(set(p)) > 1]
    seeds = ["".join(s) for m in seed_lengths
             for s in itertools.product(letters, repeat=m)]
    return itertools.product(involutions(letters), seeds, periods)


def periods(letters: str, top: int) -> list[str]:
    """Every period of 1..top letters that uses all of ``letters``."""
    return ["".join(p) for m in range(1, top + 1)
            for p in itertools.product(letters, repeat=m)
            if len(set(p)) == len(letters)]


def spec(pairs) -> str:
    """The --theta option naming these letter pairs."""
    return "pairs:" + ",".join(f"{x}-{y}" for x, y in pairs)


def run(argv: list[str]) -> int:
    """Exit code of one palrich command, its report discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main([*argv, "--len", str(LENGTH)])


def identity_sides(theta: Antimorphism, word: Word) -> tuple[int, int, bool]:
    """(sum of T(n) over 1 <= n <= safe length, 2 * defect, the identity's
    preconditions hold: closed up to the safe length, T(safe) = 0 and the
    last defect increment at most a quarter of the way in)."""
    safe = default_safe_length(len(word))
    table = complexity_table(theta, word, safe + 1, safe_length=safe)
    profile = defect_profile(theta, word)
    settled = (profile.last_increment or 0) <= len(word) / 4
    holds = (closed_under_theta(theta, word, safe)[0] and table.t(safe) == 0
             and settled)
    return (sum(map(table.t, range(1, safe + 1))), 2 * profile.values[-1],
            holds)


def breaks_identity(theta: Antimorphism, word: Word) -> bool:
    """Whether ``word`` breaks sum T(n) = 2 * defect or a precondition."""
    total, twice_defect, holds = identity_sides(theta, word)
    return not holds or total != twice_defect


def tally(counts: dict, k: int, code: int) -> None:
    """Count one outcome under its alphabet size."""
    tally_k = counts.setdefault(f"{k} letters", {})
    tally_k[OUTCOMES[code]] = tally_k.get(OUTCOMES[code], 0) + 1


def counts(sizes=(2, 3), seed_lengths=range(4), max_period=MAX_PERIOD) -> dict:
    """{method: {"<k> letters": {outcome: count}}, "periodic": {...},
    "identity failures": count} over the inputs on the first k letters of
    "abc" for each k in ``sizes``, periods up to ``max_period[k]`` letters."""
    out = {method: {} for method in METHODS}
    periodic = {method: {} for method in PERIODIC_METHODS}
    failures = 0
    for k in sizes:
        letters = "abc"[:k]
        ab = Alphabet(tuple(letters))
        for pairs, seed, period in words(letters, seed_lengths):
            theta = Antimorphism.from_pairs(ab, pairs)
            closure = ["--theta", spec(pairs), "--seed-word", seed,
                       "--directive", f"({period})"]
            for method, argv in METHODS.items():
                tally(out[method], k, run(["decompose", *argv, *closure]))
            source = ClosureSource(theta, Word.from_text(ab, seed),
                                   DirectiveSequence.parse(ab, "", period))
            failures += breaks_identity(theta, source.prefix(LENGTH))
        for pairs, period in itertools.product(involutions(letters),
                                               periods(letters, max_period[k])):
            theta = Antimorphism.from_pairs(ab, pairs)
            word = PeriodicSource(Word.from_text(ab, period)).prefix(LENGTH)
            if not closed_under_theta(theta, word,
                                      default_safe_length(LENGTH))[0]:
                continue
            failures += breaks_identity(theta, word)
            for method, argv in PERIODIC_METHODS.items():
                tally(periodic[method], k,
                      run(["decompose", "--gen", f"periodic:{period}",
                           "--theta", spec(pairs), *argv]))
    return {**out, "periodic": periodic, "identity failures": failures}


if __name__ == "__main__":
    json.dump(counts(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
