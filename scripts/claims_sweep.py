#!/usr/bin/env python3
"""The source paper's recoding claims on every small Θ-standard word with seed.

The inputs are the Θ-standard words with seed at 2000 letters for every
involution over 2 and 3 letters, every seed of 0-3 letters and every
directive period of 2-3 letters with at least two distinct letters: 5040
words.  Each is recoded three ways, through ``palrich decompose`` run in
process: ``--method path --n 1`` (Theorem 1), ``--method return`` (Theorem 2)
and ``--method theorem3``.  The output is one JSON object counting, per
method and alphabet size, the outcomes by exit code: "ok" (0), "not ok" (2:
the recoding's checks fail on the prefix, or it is inconclusive), "input
error" (1) and "invariant violated" (3).

The counts at 2000 letters are path 1812 not ok (120 over 2 letters, 1692
over 3), return 0 not ok, theorem3 576 not ok (all over 3 letters); every
other run is ok.

Usage: python3 scripts/claims_sweep.py
"""
import contextlib
import io
import itertools
import json
import sys

from palrich.cli import main

LENGTH = 2000
METHODS = {"path": ["--gen", "theta_standard", "--method", "path", "--n", "1"],
           "return": ["--gen", "theta_standard", "--method", "return"],
           "theorem3": ["--method", "theorem3"]}
OUTCOMES = {0: "ok", 1: "input error", 2: "not ok", 3: "invariant violated"}


def involutions(letters: str):
    """The --theta spec of the reversal and of each involution with one
    2-cycle: every involution over 2 or 3 letters."""
    yield "pairs:" + ",".join(f"{x}-{x}" for x in letters)
    for x, y in itertools.combinations(letters, 2):
        yield "pairs:" + ",".join([f"{x}-{y}"] + [f"{z}-{z}" for z in letters
                                                  if z not in (x, y)])


def words(letters: str, seed_lengths):
    """(theta, seed, period) of every input over ``letters``."""
    periods = ["".join(p) for m in (2, 3)
               for p in itertools.product(letters, repeat=m) if len(set(p)) > 1]
    seeds = ["".join(s) for m in seed_lengths
             for s in itertools.product(letters, repeat=m)]
    return itertools.product(involutions(letters), seeds, periods)


def counts(sizes=(2, 3), seed_lengths=range(4)) -> dict:
    """{method: {"<k> letters": {outcome: count}}} over the inputs on the
    first k letters of "abc" for each k in ``sizes``."""
    out = {method: {} for method in METHODS}
    for k in sizes:
        for theta, seed, period in words("abc"[:k], seed_lengths):
            for method, argv in METHODS.items():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["decompose", *argv, "--theta", theta,
                                 "--seed-word", seed, "--directive", f"({period})",
                                 "--len", str(LENGTH)])
                tally = out[method].setdefault(f"{k} letters", {})
                tally[OUTCOMES[code]] = tally.get(OUTCOMES[code], 0) + 1
    return out


if __name__ == "__main__":
    json.dump(counts(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
