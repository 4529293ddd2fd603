#!/usr/bin/env python3
"""Track empirical violation thresholds as the analyzed prefix grows.

For each corpus word, prints the complete-return-word palindromicity
threshold and the last non-unioccurrent suffix position at doubling prefix
lengths.  A word with finite defect should show both columns stabilize; a
word with infinite defect shows the last violation chase the prefix end.

Usage: python3 scripts/threshold_scan.py --max-len 16000
"""
import argparse
import sys

from palrich.core import Alphabet, Antimorphism, Word
from palrich.generators import (
    ClosureSource,
    DirectiveSequence,
    ThueMorseSource,
    fibonacci_source,
)
from palrich.palindromes import crw_violation_lengths, defect_profile


def corpus():
    ab = Alphabet(("a", "b"))
    tr = Antimorphism.reversal(ab)
    e = Antimorphism.from_pairs(ab, [("a", "b")])
    yield "fibonacci", tr, fibonacci_source()
    yield "thue_morse", tr, ThueMorseSource()
    yield "ts_exchange", e, ClosureSource(
        e, Word(ab, ()), DirectiveSequence.parse(ab, "", "ab"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-len", type=int, default=16000)
    ap.add_argument("--min-len", type=int, default=1000)
    args = ap.parse_args()
    if args.min_len < 1:
        print(f"error: --min-len must be at least 1, got {args.min_len}",
              file=sys.stderr)
        return 1
    print(f"{'word':12s} {'len':>6s} {'defect':>6s} {'crw_thr':>8s} "
          f"{'last_viol':>9s}")
    for name, theta, src in corpus():
        n = args.min_len
        while n <= args.max_len:
            w = src.prefix(n)
            # the threshold of crw_palindromicity_scan, read from the index
            crw_thr = 1 + max(crw_violation_lengths(theta, w.symbols), default=0)
            profile = defect_profile(theta, w)
            last = profile.last_increment
            print(f"{name:12s} {n:6d} {profile.values[-1]:6d} {crw_thr:8d} "
                  f"{'-' if last is None else last:>9}")
            n *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
