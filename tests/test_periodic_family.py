"""An exact oracle for the claims sweep's periodic family: w^omega has
Theta-defect 0 exactly when w^2 has, and exactly when w^3 has.

For Theta the reversal, a periodic word w^omega is rich exactly when w^2 is
(Glen, Justin, Widmer and Zamboni 2009, "Palindromic richness", Thm 3.1).
The general Theta form is observed on the inputs below, not quoted from a
theorem.  The library's defect of the 2000-letter prefix is compared with
the append-loop oracle's defect of w^2 and w^3.
"""
import itertools
import pathlib
import runpy

from palrich.complexity import closed_under_theta, default_safe_length
from palrich.core import Alphabet, Antimorphism, Word
from palrich.generators import PeriodicSource
from palrich.palindromes import defect
from oracles import append_loop_defect_profile

SWEEP = runpy.run_path(str(pathlib.Path(__file__).resolve().parents[1]
                           / "scripts" / "claims_sweep.py"))
LENGTH = 2000


def test_prefix_defect_zero_exactly_when_square_and_cube_are():
    # every period of up to 6 letters using all of 2 or 3 letters, under
    # every involution, whose factor set is closed up to the safe length
    rich = closed = 0
    for letters in ("ab", "abc"):
        ab = Alphabet(tuple(letters))
        for pairs, period in itertools.product(SWEEP["involutions"](letters),
                                               SWEEP["periods"](letters, 6)):
            theta = Antimorphism.from_pairs(ab, pairs)
            word = PeriodicSource(Word.from_text(ab, period)).prefix(LENGTH)
            if not closed_under_theta(theta, word, default_safe_length(LENGTH))[0]:
                continue
            closed += 1
            square, cube = (append_loop_defect_profile(
                theta, Word.from_text(ab, period * m)).values[-1] == 0
                for m in (2, 3))
            assert (defect(theta, word) == 0) == square == cube, (pairs, period)
            rich += square
    assert closed == 688 and 0 < rich < closed
