"""The palindromic tree against the suffix automaton: sum T(n) = 2 * defect.

``PalIndex`` gives the defect and P(n); the suffix automaton gives C(n).
For a prefix closed under Theta whose defect has settled and whose T(n) has
vanished by the safe length, the sum of T(n) over 1 <= n <= safe_length
equals twice the prefix's Theta-defect.  For Theta the reversal this is the
Brlek-Reutenauer identity (proved by Balkova, Pelantova and Starosta for
uniformly recurrent words).  The general Theta form is observed on the
inputs below, not quoted from a theorem.
"""
import itertools
import pathlib
import runpy

from palrich.complexity import closed_under_theta, default_safe_length
from palrich.core import Word
from conftest import corpus, every_involution

# the identity and its preconditions are written once, in the claims sweep,
# which counts the words of its two families that break them
identity_sides = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parents[1] / "scripts"
        / "claims_sweep.py"))["identity_sides"]


def test_identity_on_corpus():
    sums = {}
    for name, theta, w in corpus(4000):
        if name == "thue_morse":
            continue
        total, twice_defect, holds = identity_sides(theta, w)
        assert holds, name
        assert total == twice_defect, (name, total, twice_defect)
        sums[name] = total
    # a nonzero defect on both sides, so the identity is not only 0 = 0
    assert sums == {"fibonacci": 0, "tribonacci": 0, "ts_exchange": 4,
                    "ts_mixed3": 4, "ts_seeded_rev": 0}


def test_identity_fails_on_thue_morse():
    # infinite defect: the preconditions fail, and so does the identity
    _, theta, w = next(c for c in corpus(4000) if c[0] == "thue_morse")
    assert identity_sides(theta, w) == (100, 1704, False)


def test_identity_on_closed_periodic_words():
    # every period up to 6 letters over 2 letters and up to 4 over 3, under
    # every involution; the words whose factor set is not closed are skipped
    closed = 0
    for k, top in ((2, 6), (3, 4)):
        for theta in every_involution(k):
            for p in range(1, top + 1):
                for period in itertools.product(range(k), repeat=p):
                    w = Word(theta.alphabet,
                             tuple(period[i % p] for i in range(1200)))
                    if not closed_under_theta(
                            theta, w, default_safe_length(len(w)))[0]:
                        continue
                    total, twice_defect, holds = identity_sides(theta, w)
                    assert holds, (theta.pairing, period)
                    assert total == twice_defect, (theta.pairing, period)
                    closed += 1
    assert closed == 322
