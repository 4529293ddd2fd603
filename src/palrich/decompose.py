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

from bisect import bisect_right

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
    find,
    occurrences,
    segment_coding,
)
from .complexity import closed_under_theta, default_safe_length
from .generators import (
    ArnouxRauzyReport,
    DirectiveSequence,
    arnoux_rauzy_check,
    theta_standard_with_seed_source,
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
    path_alphabet: Alphabet       # letters "[k]" by first occurrence
    theta2: Antimorphism
    v_prefix: Word                # word over path_alphabet
    phi: Morphism                 # path_alphabet -> original alphabet
    path_table: dict              # letter token -> underlying path Word
    occurrence_indices: tuple[int, ...]
    covered_start: int
    covered_end: int
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
            "covered": [self.covered_start, self.covered_end],
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
            span: tuple[int, int], kind: str) -> tuple[Morphism, Word]:
    # phi sends letter k to segment k less its overlap with the next one, v
    # is ``codes``; phi(v) must give back the covered span of the prefix
    b_alpha = Alphabet(letters)
    phi = Morphism(b_alpha, prefix.alphabet, tuple(
        Word(prefix.alphabet, e[:len(e) - overlap]) for e in segments))
    v = Word(b_alpha, tuple(codes))
    if phi.image(codes) != prefix.symbols[span[0]:span[1]]:
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
    phi, v = _recode(prefix, [sym[:p]], [0] * count, 0, ("[0]",), (0, count * p),
                     "simple-path")
    return SimplePathCoding(
        n=n, requested_n=n, path_alphabet=phi.source,
        theta2=Antimorphism.reversal(phi.source), v_prefix=v, phi=phi,
        path_table={"[0]": phi.images[0]},
        occurrence_indices=tuple(range(0, count * p, p)),
        covered_start=0, covered_end=count * p, tail_length=len(sym) - count * p,
        flags={"periodic": True, "period_length": p})


def theorem1_decompose(theta: Antimorphism, prefix: Word, n: int) -> SimplePathCoding:
    """Recode the prefix over the alphabet of its n-simple paths.

    The coding length is bumped to the smallest n' >= n whose length-n'
    prefix is special (so the coding starts at position 0); eventually
    periodic inputs take the unary branch.  Whether that prefix is special
    is read from its own occurrences, so the special factors are listed at
    n and at the chosen length only.  The search need not stop at a length
    without special factors: a left (right) special factor has a left
    (right) special prefix (suffix) one letter shorter, so no greater
    length has any either.  Requires the factor set to be closed under
    Theta at the chosen length.
    """
    _check_same(theta, prefix)
    if not 1 <= n <= len(prefix) // 4:
        raise InputError(f"coding length {n} unreasonable for |prefix|={len(prefix)}")

    sym = prefix.symbols
    specials, positions, (paths, v_sym) = simple_path_cut(sym, n)
    if not specials:
        return _periodic_coding(prefix, n)

    flags: dict = {}
    for chosen in range(n, min(n + SEARCH_BUDGET, len(prefix) // 4) + 1):
        occ = occurrences(prefix, prefix.factor(0, chosen))
        left, right = factor_extensions(sym, occ, chosen)
        if len(left) >= 2 or len(right) >= 2:
            break
    else:
        chosen = n
        flags["aligned_at_first_special"] = True
    if chosen != n:
        specials, positions, (paths, v_sym) = simple_path_cut(sym, chosen)

    closed, witness = closed_under_theta(theta, prefix, chosen)
    if not closed:
        raise DecomposeError(
            "factor set is not closed under Theta at the coding length",
            {"n": chosen, "witness": witness.text if witness else None})

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
    phi, v = _recode(prefix, paths, v_sym, chosen, letters,
                     (positions[0], positions[-1]), "simple-path")
    return SimplePathCoding(
        n=chosen, requested_n=n, path_alphabet=phi.source,
        theta2=Antimorphism(phi.source, tuple(pairing)), v_prefix=v, phi=phi,
        path_table={tok: Word(prefix.alphabet, e) for tok, e in zip(letters, paths)},
        occurrence_indices=tuple(positions),
        covered_start=positions[0], covered_end=positions[-1],
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
    # every minimal factor from w to Theta(w) that is not a Theta-palindrome,
    # for |w| up to max_factor_len, by (|w|, first occurrence of w, of the
    # factor), stopping at the length that reaches REPORTED_WITNESSES.  No
    # mark w or Theta(w) starts strictly inside such a segment u, so each
    # occurrence of u is one.  A table of suffixes sorted by their first
    # 2 * max_factor_len letters holds those starting with a shorter u in one
    # block, cut once; a longer u is cut at each of its occurrences.
    sym, seq, width = v_prefix.symbols, v_prefix.encoded, v_prefix.alphabet.width
    mirror = encode(theta2.image(sym), width)   # Theta(seq[i:j]) is mirror[n - j:n - i]
    top = min(max_factor_len, len(sym))
    n, span = len(seq), top * width
    sa = sorted(range(0, n, width), key=lambda i: seq[i:i + 2 * span])
    # cut_at[h]: the indices j whose suffix shares h < top letters with j - 1's
    cut_at: list[list[int]] = [[] for _ in range(top)]
    for j in range(1, len(sa)):
        a, b = seq[sa[j - 1]:sa[j - 1] + span], seq[sa[j]:sa[j] + span]
        if a != b:  # a sorts first: no mismatch makes it a prefix of b
            h = next((k for k, (c, d) in enumerate(zip(a, b)) if c != d), len(a))
            cut_at[h // width].append(j)
    cuts, witnesses = [0, len(sa)], []
    for length in range(1, top + 1):
        cuts = sorted(cuts + cut_at[length - 1])  # the factors lie between
        size = length * width
        runs = {seq[sa[s]:sa[s] + size]: (s, e)
                for s, e in zip(cuts, cuts[1:]) if n - sa[s] >= size}
        found: dict = {}    # segment -> (first occurrence of w, of segment)
        for x, (s, e) in runs.items():
            tx = mirror[n - sa[s] - size:n - sa[s]]
            j = s if tx in runs else e  # Theta(x) must occur
            while j < e:
                i1 = sa[j]
                q = find(seq, x, width, i1 + width, n)
                t = q if tx == x else find(seq, tx, width, i1 + width,
                                           n if q < 0 else q + size - width)
                mark = t if t >= 0 else q
                u = seq[i1:mark + size]
                k = j + 1 if mark < 0 or len(u) > 2 * span else bisect_right(
                    sa, u, j + 1, e, key=lambda i, m=len(u): seq[i:i + m])
                if t >= 0 and u not in found and mirror[n - i1 - len(u):n - i1] != u:
                    found[u] = (min(sa[s:e]), min(sa[j:k]))
                j = k
        witnesses.extend(Word(v_prefix.alphabet, sym[i // width:(i + len(u)) // width])
                         for u, (_, i) in sorted(found.items(), key=lambda kv: kv[1]))
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
    # first index where a letter of its pair follows itself
    pair, last, failed = theta2.pairing, {}, {}
    for i, x in enumerate(v_prefix.symbols):
        a = min(x, pair[x])
        if a != pair[a] and last.get(a) == x:
            failed.setdefault(a, i)
        last[a] = x
    a = min(failed, default=None)
    cond_ii_witness = (None if a is None else
                       f"letter {theta2.alphabet.letters[a]} at index {failed[a]}")
    return RichnessConditionsReport(
        condition_i=not witnesses,
        condition_i_witnesses=tuple(witnesses[:REPORTED_WITNESSES]),
        condition_ii=cond_ii_witness is None,
        condition_ii_witness=cond_ii_witness, max_factor_len=max_factor_len)


# --- return-word recoding ----------------------------------------------------

class ReturnWordCoding(Record):
    p: Word
    return_alphabet: Alphabet     # "1".."M" in first-occurrence order
    returns: tuple[Word, ...]
    phi: Morphism
    v_prefix: Word
    occurrence_indices: tuple[int, ...]
    covered_length: int
    tail_length: int
    eq3_ok: bool

    @property
    def m(self) -> int:
        return len(self.returns)

    def describe(self) -> dict:
        return {
            "p": self.p.text,
            "M": self.m,
            "returns": {self.return_alphabet.letters[i]: q.text
                        for i, q in enumerate(self.returns)},
            "morphism": self.phi.describe(),
            "v_prefix": self.v_prefix.text,
            "covered_length": self.covered_length,
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
                     tuple(str(i + 1) for i in range(len(complete))),
                     (0, occ[-1]), "return-word")
    return ReturnWordCoding(
        p=p, return_alphabet=phi.source, returns=phi.images, phi=phi, v_prefix=v,
        occurrence_indices=tuple(occ), covered_length=occ[-1],
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
    src = theta_standard_with_seed_source(theta, seed, d)
    target, coding = _bispecial_coding(theta, src.prefix(scale))
    m = coding.m
    size_ok = m <= len(theta.alphabet)
    last_letters = [q.symbols[-1] for q in coding.returns]
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
