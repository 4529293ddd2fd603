"""Recodings of almost-rich words as morphic images of rich words.

Two constructions: coding by consecutive occurrences of special factors
(simple-path recoding) and coding by return words of a suitable palindromic
prefix (derived-word recoding), plus the pipeline specializing the latter to
words built by iterated Theta-palindromic closure.

The constants controlling "long enough" are existential in the underlying
statements, so choices of the coding length n and the prefix p are made from
empirical violation scans with a safety margin, and are recorded in the
outputs for auditability.
"""
from __future__ import annotations

import re
from bisect import bisect_left, bisect_right

from .core import (
    Alphabet,
    Antimorphism,
    InputError,
    InvariantError,
    Morphism,
    Record,
    Word,
    _check_same,
    encode,
    occurrences,
    segment_coding,
)
from .complexity import closed_under_theta, default_safe_length
from .generators import (
    ArnouxRauzyReport,
    ClosureSource,
    DirectiveSequence,
    arnoux_rauzy_check,
)
from .palindromes import crw_violation_lengths, defect, pal_prefix_lengths
from .rauzy import factor_extensions, simple_path_cut

DEFAULT_SAFETY_MARGIN = 2
SEARCH_BUDGET = 64      # coding lengths tried past n by theorem1_decompose
REPORTED_WITNESSES = 8  # condition (i) witnesses kept in the report


class DecomposeError(RuntimeError):
    """A decomposition pipeline cannot proceed; details in ``payload``."""

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload or {}


# --- simple-path recoding ----------------------------------------------------

class SimplePathCoding(Record):
    n: int                        # coding length actually used
    requested_n: int
    theta2: Antimorphism
    v_prefix: Word                # word over phi.source
    phi: Morphism                 # "[k]" by first occurrence -> original alphabet
    path_table: dict              # letter token -> underlying path Word
    occurrence_indices: tuple[int, ...]  # the cut: v covers the first to the last
    tail_length: int
    flags: dict

    def describe(self) -> dict:
        return {
            "n": self.n,
            "requested_n": self.requested_n,
            "alphabet": {tok: w.text for tok, w in self.path_table.items()},
            "theta2": self.theta2.describe(),
            "morphism": self.phi.describe(),
            "v_prefix": self.v_prefix.text,
            "covered": [self.occurrence_indices[0], self.occurrence_indices[-1]],
            "uncovered_tail": self.tail_length,
            "flags": self.flags,
        }


def _smallest_period(sym: tuple) -> int:
    # classic failure-function period of the whole word
    n = len(sym)
    fail = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k and sym[i] != sym[k]:
            k = fail[k]
        if sym[i] == sym[k]:
            k += 1
        fail[i + 1] = k
    return n - fail[n]


def _recode(prefix: Word, segments, codes, overlap: int, letters: tuple,
            cut, kind: str) -> tuple[Morphism, Word]:
    # phi sends letter k to segment k less its overlap with the next one, v
    # is ``codes``; phi(v) must give back the prefix from the first to the
    # last position of the cut, compared as encoded text
    b_alpha = Alphabet(letters)
    phi = Morphism(b_alpha, prefix.alphabet, tuple(
        Word.unchecked(prefix.alphabet, e[:len(e) - overlap]) for e in segments))
    v = Word.unchecked(b_alpha, tuple(codes))
    texts = [im.encoded for im in phi.images]
    if "".join(map(texts.__getitem__, codes)) != prefix.encoded[cut[0]:cut[-1]]:
        raise InvariantError(f"{kind} refactorization mismatch")
    return phi, v


def _periodic_coding(prefix: Word, n: int) -> SimplePathCoding:
    sym = prefix.symbols
    p = _smallest_period(sym)
    if p > len(sym) // 2:
        raise DecomposeError(
            "no special factors and no short period: prefix too short to decide",
            {"smallest_period": p, "prefix_length": len(sym)})
    count = len(sym) // p
    cut = range(0, count * p + 1, p)
    phi, v = _recode(prefix, [sym[:p]], [0] * count, 0, ("[0]",), cut, "simple-path")
    return SimplePathCoding(
        n=n, requested_n=n, theta2=Antimorphism.reversal(phi.source), v_prefix=v,
        phi=phi, path_table={"[0]": phi.images[0]}, occurrence_indices=tuple(cut),
        tail_length=len(sym) - cut[-1], flags={"periodic": True, "period_length": p})


def _closed_at(theta: Antimorphism, text: str, n: int) -> bool:
    """Is the factor set of ``text`` (an encoded word) closed under Theta up
    to length n <= |text|?  A factor no longer than n with an absent image
    lies in a length-n window, whose image is absent too: so the image of
    each window, its slice of the mirror text, must be a window.  O(|w| n),
    as theorem 1's cut, and no suffix automaton is built."""
    windows = {text[i:i + n] for i in range(len(text) - n + 1)}
    return all(f[::-1].translate(theta.pairing) in windows for f in windows)


def theorem1_decompose(theta: Antimorphism, prefix: Word, n: int) -> SimplePathCoding:
    """Recode the prefix over the alphabet of its n-simple paths.

    The coding length is bumped to the smallest n' >= n whose length-n'
    prefix is special (so the coding starts at position 0); eventually
    periodic inputs take the unary branch.  Whether the length-n prefix is
    special is read from the special factors listed at n; past n, from that
    prefix's own occurrences, so the special factors are listed at n and at
    the chosen length only.  The search need not stop at a length
    without special factors: a left (right) special factor has a left
    (right) special prefix (suffix) one letter shorter, so no greater
    length has any either.  Requires the factor set to be closed under
    Theta at the chosen length: ``_closed_at`` decides it, and only a failure
    asks ``closed_under_theta`` for its leftmost shortest witness.
    """
    _check_same(theta, prefix)
    if not 1 <= n <= len(prefix) // 4:
        raise InputError(f"coding length {n} unreasonable for |prefix|={len(prefix)}")

    sym = prefix.symbols
    specials, positions, (paths, v_sym) = simple_path_cut(sym, n)
    if not specials:
        return _periodic_coding(prefix, n)

    flags: dict = {}
    chosen = n
    if sym[:n] not in specials:
        for chosen in range(n + 1, min(n + SEARCH_BUDGET, len(prefix) // 4) + 1):
            occ = occurrences(prefix, prefix.factor(0, chosen))
            left, right = factor_extensions(sym, occ, chosen)
            if len(left) >= 2 or len(right) >= 2:
                break
        else:
            chosen = n
            flags["aligned_at_first_special"] = True
    if chosen != n:
        specials, positions, (paths, v_sym) = simple_path_cut(sym, chosen)

    if not _closed_at(theta, prefix.encoded, chosen):
        closed, witness = closed_under_theta(theta, prefix, chosen)
        if closed:
            raise InvariantError("closure at the coding length decided two ways")
        raise DecomposeError(
            "factor set is not closed under Theta at the coding length",
            {"n": chosen, "witness": witness.text})

    if len(positions) < 2:
        raise DecomposeError("fewer than two special-factor occurrences witnessed",
                             {"n": chosen})
    if positions[0] != 0:
        flags["aligned_at"] = positions[0]

    letter_of = {e: k for k, e in enumerate(paths)}
    pairing = []
    for e in paths:
        te = theta.image(e)
        if te not in letter_of:
            raise DecomposeError(
                "Theta-image of a simple path not witnessed; prefix too short",
                {"n": chosen, "path": prefix.alphabet.spell(e)})
        pairing.append(letter_of[te])

    letters = tuple(f"[{k}]" for k in range(len(paths)))
    phi, v = _recode(prefix, paths, v_sym, chosen, letters, positions, "simple-path")
    return SimplePathCoding(
        n=chosen, requested_n=n, theta2=Antimorphism(phi.source, tuple(pairing)),
        v_prefix=v, phi=phi,
        path_table={tok: Word.unchecked(prefix.alphabet, e) for tok, e in zip(letters, paths)},
        occurrence_indices=tuple(positions),
        tail_length=len(sym) - positions[-1], flags=flags)


class RichnessConditionsReport(Record):
    """The two sufficient conditions for richness of a recoded word."""

    condition_i: bool
    condition_i_witnesses: tuple[Word, ...]
    condition_ii: bool
    condition_ii_witness: str | None
    max_factor_len: int

    @property
    def both(self) -> bool:
        return self.condition_i and self.condition_ii

    def describe(self) -> dict:
        return {
            "condition_i": self.condition_i,
            "condition_i_witnesses": [w.text for w in self.condition_i_witnesses],
            "condition_ii": self.condition_ii,
            "condition_ii_witness": self.condition_ii_witness,
            "max_factor_len": self.max_factor_len,
        }


def _mirror_bounded_witnesses(theta2: Antimorphism, v_prefix: Word,
                              max_factor_len: int) -> list[Word]:
    """Every minimal factor from w to Theta(w) that is not a Theta-palindrome,
    for |w| up to ``max_factor_len``, by (|w|, first occurrence of w, of the
    factor), stopping at the length that reaches ``REPORTED_WITNESSES``.

    No mark w or Theta(w) starts strictly inside such a segment u, so each
    occurrence of u is one.  Suffixes sorted by their first 2 * max_factor_len
    letters hold the occurrences of w in one run, those starting with a
    shorter u in one block, cut once; a longer u is cut at each occurrence.
    But x = y a (|x| >= 2) keeps y's segments and keys if x != Theta(x),
    #occ(x) = #occ(y) - [v ends with y] and #occ(Theta(x)) = #occ(Theta(y))
    - [v starts with Theta(y)] (run sizes): x occurs where y does but at the
    end, Theta(x) = Theta(a) Theta(y) one letter left of each Theta(y) but at
    0.  So y's segment from i to a Theta(y) at t is x's from i to the Theta(x)
    at t - 1 > i (t - 1 = i makes x = Theta(x)), none starting between; if
    y's next mark is a y and no Theta(y), or none, x has none from i either.
    Only the other factors, special ones (Cassaigne 1997) among them, are cut.
    """
    sym, seq = v_prefix.symbols, v_prefix.encoded
    mirror = encode(theta2.image(sym))   # Theta(seq[i:j]) is mirror[n - j:n - i]
    n, top = len(seq), min(max_factor_len, len(seq))
    sa = sorted(range(n), key=lambda i: seq[i:i + 2 * top])
    # cut_at[h]: the indices j whose suffix shares h < top letters with j - 1's
    cut_at: list[list[int]] = [[] for _ in range(top)]
    for j in range(1, n):
        a, b = seq[sa[j - 1]:sa[j - 1] + top], seq[sa[j]:sa[j] + top]
        if a != b:  # a sorts first: no mismatch makes it a prefix of b
            h, hi = 0, len(a)   # a[:h] == b[:h]; the common prefix is at most hi
            while h < hi:
                mid = (h + hi + 1) // 2
                h, hi = (mid, hi) if a[h:mid] == b[h:mid] else (h, mid - 1)
            cut_at[h].append(j)
    # runs: w -> (s, e) in sa; found: w -> {segment: (first occurrence of w, of it)}
    cuts, witnesses, runs, found = [0, n], [], {}, {}
    for length in range(1, top + 1):
        cuts = sorted(cuts + cut_at[length - 1])  # the factors lie between
        prev_runs, prev_found = runs, found
        runs = {seq[sa[s]:sa[s] + length]: (s, e)
                for s, e in zip(cuts, cuts[1:]) if n - sa[s] >= length}
        head, tail, found = seq[:length - 1], seq[n - length + 1:], {}
        for x, (s, e) in runs.items():
            tx = mirror[n - sa[s] - length:n - sa[s]]
            if length > 1 and tx != x:
                y, ty = x[:-1], tx[1:]
                (ys, ye), (ts, te) = prev_runs[y], runs.get(tx, (0, 0))
                us, ue = prev_runs.get(ty, (0, 0))
                if e - s == ye - ys - (y == tail) and te - ts == ue - us - (ty == head):
                    found[x] = prev_found[y]
                    continue
            segments = found[x] = {}
            j = s if tx in runs else e  # Theta(x) must occur
            while j < e:
                i1 = sa[j]
                q = seq.find(x, i1 + 1)
                t = q if tx == x else seq.find(tx, i1 + 1,
                                               n if q < 0 else q + length - 1)
                mark = t if t >= 0 else q
                u = seq[i1:mark + length]
                k = j + 1 if mark < 0 or len(u) > 2 * top else bisect_right(
                    sa, u, j + 1, e, key=lambda i, m=len(u): seq[i:i + m])
                if t >= 0 and u not in segments and mirror[n - i1 - len(u):n - i1] != u:
                    segments[u] = (min(sa[s:e]), min(sa[j:k]))
                j = k
        keyed = sorted((key, u) for segments in found.values() for u, key in segments.items())
        witnesses.extend(Word.unchecked(v_prefix.alphabet, sym[i:i + len(u)])
                         for (_, i), u in keyed)   # no two segments share a key
        if len(witnesses) >= REPORTED_WITNESSES:
            break
    return witnesses


def richness_conditions_check(theta2: Antimorphism, v_prefix: Word,
                              max_factor_len: int | None = None
                              ) -> RichnessConditionsReport:
    """Mirror-bounded palindromicity for every factor, plus letter-image
    occurrence alternation.

    Condition (i) is scanned over all factors up to ``max_factor_len``
    (default: half the prefix, capped at 64).  A prefix of Theta-defect 0
    satisfies it at every length, so it is not scanned.
    """
    if len(v_prefix) == 0:
        raise InputError("empty recoded prefix")
    if max_factor_len is None:
        max_factor_len = min(max(1, len(v_prefix) // 2), 64)
    if max_factor_len < 1:
        raise InputError(f"max_factor_len must be at least 1, got {max_factor_len}")
    witnesses: list[Word] = []
    if defect(theta2, v_prefix) != 0:
        witnesses = _mirror_bounded_witnesses(theta2, v_prefix, max_factor_len)
    # condition (ii): the letters of each pair {a, Theta(a)}, a < Theta(a),
    # alternate; a test of every letter reports the smallest failing a at the
    # first index where a letter of its pair follows itself.  v's positions
    # sorted stably by pair, fixed letters cut off, hold one block per pair,
    # in index order, so the first letter repeated in their text is it
    pair, sym = theta2.pairing, v_prefix.symbols
    key = [min(x, y) if x != y else len(pair) for x, y in enumerate(pair)]
    keys = list(map(key.__getitem__, sym))
    order = sorted(range(len(sym)), key=keys.__getitem__)
    order = order[:bisect_left(order, len(pair), key=keys.__getitem__)]
    twice = re.search(r"(.)\1", encode(map(sym.__getitem__, order)), re.DOTALL)
    i = order[twice.end() - 1] if twice else None
    cond_ii_witness = (None if i is None else
                       f"letter {theta2.alphabet.letters[keys[i]]} at index {i}")
    return RichnessConditionsReport(
        condition_i=not witnesses,
        condition_i_witnesses=tuple(witnesses[:REPORTED_WITNESSES]),
        condition_ii=cond_ii_witness is None,
        condition_ii_witness=cond_ii_witness, max_factor_len=max_factor_len)


# --- return-word recoding ----------------------------------------------------

class ReturnWordCoding(Record):
    p: Word
    phi: Morphism                 # return words "1".."M" in first-occurrence order
    v_prefix: Word
    occurrence_indices: tuple[int, ...]  # the cut: v covers up to the last
    tail_length: int
    eq3_ok: bool

    @property
    def m(self) -> int:
        return len(self.phi.images)

    def describe(self) -> dict:
        return {
            "p": self.p.text,
            "M": self.m,
            "returns": self.phi.describe(),
            "morphism": self.phi.describe(),
            "v_prefix": self.v_prefix.text,
            "covered_length": self.occurrence_indices[-1],
            "uncovered_tail": self.tail_length,
            "eq3_ok": self.eq3_ok,
        }


def verify_eq3(theta: Antimorphism, p: Word, q: Word) -> bool:
    """Letter-for-letter check of p Theta(q) = q p."""
    _check_same(theta, q)
    if p.alphabet != q.alphabet:
        raise InputError("cannot concatenate words over different alphabets")
    return p.symbols + theta.image(q.symbols) == q.symbols + p.symbols


def verify_eq4(theta: Antimorphism, phi: Morphism, p: Word, w: Word) -> bool:
    """Letter-for-letter check of Theta(phi(w) p) = phi(reverse(w)) p."""
    if w.alphabet != phi.source:
        raise InputError("alphabet mismatch: word is not over the morphism source")
    if p.alphabet != phi.target:
        raise InputError("cannot concatenate words over different alphabets")
    if theta.alphabet != phi.target:
        raise InputError("alphabet mismatch")
    return theta.image(phi.image(w.symbols) + p.symbols) == \
        phi.image(w.symbols[::-1]) + p.symbols


def _candidate_prefix_lengths(theta: Antimorphism,
                              prefix: Word) -> tuple[int, list[int]]:
    # the empirical threshold (longest factor with a non-palindromic complete
    # return, times the safety margin) and the Theta-palindromic prefix
    # lengths from it up to a quarter of the prefix, ascending
    worst = max(crw_violation_lengths(theta, prefix.symbols), default=0)
    target = max(1, DEFAULT_SAFETY_MARGIN * worst)
    return target, [length for length in pal_prefix_lengths(theta, prefix.symbols)
                    if target <= length <= len(prefix) // 4]


def _return_coding(theta: Antimorphism, prefix: Word, p: Word,
                   occ: list[int]) -> ReturnWordCoding:
    """The coding of the prefix over the return words of its prefix p, cut
    at ``occ``, the occurrences of p (at least 3).

    Complete returns are not tested one by one.  For a Theta-palindrome p and
    a return word q, Theta(qp) = p Theta(q), so the complete return qp is a
    Theta-palindrome exactly when p Theta(q) = q p, which is equation (3):
    ``eq3_ok`` is the complete-return check.  The candidates are longer than
    every palindrome with a non-palindromic complete return
    (``crw_violation_lengths``), so it holds; were it ever to fail, the
    reports say ``eq3_ok: false`` and are not ok.
    """
    complete, v_sym = segment_coding(prefix.symbols, occ, len(p))
    phi, v = _recode(prefix, complete, v_sym, len(p),
                     tuple(str(i + 1) for i in range(len(complete))), occ, "return-word")
    return ReturnWordCoding(
        p=p, phi=phi, v_prefix=v, occurrence_indices=tuple(occ),
        tail_length=len(prefix) - occ[-1],
        eq3_ok=all(verify_eq3(theta, p, q) for q in phi.images))


def theorem2_decompose(theta: Antimorphism, prefix: Word) -> ReturnWordCoding:
    """Derived-word recoding over the return words of a Theta-palindromic
    prefix p.

    p is the shortest Theta-palindromic prefix that occurs at least 3 times
    and whose length clears the empirical complete-return threshold (times
    the safety margin).  Only the shortest candidate can qualify.  A longer
    candidate P has it as a prefix, so it fails whenever the shortest does.
    And P = p s gives P = Theta(P) = Theta(s) p, so P ends with p: with
    three candidates, p occurs at 0 and at the end of the two longer ones,
    3 times.  A failure thus has at most two candidates.
    """
    _check_same(theta, prefix)
    target, lengths = _candidate_prefix_lengths(theta, prefix)
    best_candidate: dict | None = None
    if lengths:
        p = prefix.factor(0, lengths[0])
        occ = occurrences(prefix, p)
        if len(occ) >= 3:
            return _return_coding(theta, prefix, p, occ)
        best_candidate = {"p": prefix.factor(0, lengths[-1]).text,
                          "reason": "fewer than 3 occurrences"}
    raise DecomposeError(
        "no qualifying Theta-palindromic prefix found",
        {"empirical_threshold": target, "best_candidate": best_candidate})


# --- full pipeline for closure-generated words -------------------------------

def _bispecial_coding(theta: Antimorphism,
                      u: Word) -> tuple[int, ReturnWordCoding]:
    # the empirical threshold and the coding over the return words of the
    # shortest bispecial Theta-palindromic prefix p above it.  p is left
    # special, so it occurs at 0 and after two different letters: at least
    # 3 occurrences, as _return_coding needs.
    target, lengths = _candidate_prefix_lengths(theta, u)
    for length in lengths:
        p = u.factor(0, length)
        occ = occurrences(u, p)
        left, right = factor_extensions(u.symbols, occ, length)
        if len(left) >= 2 and len(right) >= 2:
            return target, _return_coding(theta, u, p, occ)
    raise DecomposeError(
        "no bispecial Theta-palindromic prefix above the empirical threshold",
        {"empirical_threshold": target, "scale": len(u)})


def theorem3_pipeline(theta: Antimorphism, seed: Word, d: DirectiveSequence,
                      scale: int) -> dict:
    """Generate a word by iterated Theta-palindromic closure, recode it over
    the return words of a bispecial Theta-palindromic prefix, and check the
    announced properties of the result.

    Checks: derived alphabet size M bounded by the source alphabet size,
    return words ending with distinct letters, and the Arnoux-Rauzy test on
    the derived prefix.
    """
    src = ClosureSource(theta, seed, d)
    target, coding = _bispecial_coding(theta, src.prefix(scale))
    m = coding.m
    size_ok = m <= len(theta.alphabet)
    last_letters = [q.symbols[-1] for q in coding.phi.images]
    distinct_ok = len(set(last_letters)) == len(last_letters)
    v = coding.v_prefix
    ar: ArnouxRauzyReport = arnoux_rauzy_check(
        v, max_len=default_safe_length(len(v)), valence=m)
    v_defect = defect(Antimorphism.reversal(v.alphabet), v)
    return {
        "source": src.describe(),
        "scale": scale,
        "p": coding.p.text,
        "empirical_threshold": target,
        "coding": coding.describe(),
        "checks": {
            "alphabet_bound": size_ok,
            "M": m,
            "source_alphabet_size": len(theta.alphabet),
            "returns_end_with_distinct_letters": distinct_ok,
            "arnoux_rauzy": ar.describe(),
            "derived_defect": v_defect,
        },
        "ok": bool(size_ok and distinct_ok and ar.ok and coding.eq3_ok),
    }
