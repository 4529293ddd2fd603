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

from dataclasses import dataclass
from typing import Optional

from .core import (
    Alphabet,
    Antimorphism,
    InputError,
    InvariantError,
    Morphism,
    Word,
    apply_antimorphism,
    apply_morphism,
    occurrences,
    segment_coding,
    symbols_are_theta_palindrome,
)
from .complexity import closed_under_theta, default_safe_length
from .generators import (
    ArnouxRauzyReport,
    DirectiveSequence,
    arnoux_rauzy_check,
    theta_standard_with_seed_source,
)
from .palindromes import crw_violation_lengths, defect, pal_prefix_lengths
from .rauzy import _positions, _special_tuples, special_extensions
from .returns import occurrences_alternate

DEFAULT_SAFETY_MARGIN = 2
SEARCH_BUDGET = 64      # coding lengths tried past n by theorem1_decompose
MAX_CANDIDATES = 16     # palindromic prefixes tried by theorem2_decompose
REPORTED_WITNESSES = 8  # condition (i) witnesses kept in the report


class DecomposeError(RuntimeError):
    """A decomposition pipeline cannot proceed; details in ``payload``."""

    def __init__(self, message: str, payload: Optional[dict] = None):
        super().__init__(message)
        self.payload = payload or {}


# --- simple-path recoding ----------------------------------------------------

@dataclass(frozen=True)
class SimplePathCoding:
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


def _periodic_coding(theta: Antimorphism, prefix: Word, n: int) -> SimplePathCoding:
    sym = prefix.symbols
    p = _smallest_period(sym)
    if p > len(sym) // 2:
        raise DecomposeError(
            "no special factors and no short period: prefix too short to decide",
            {"smallest_period": p, "prefix_length": len(sym)})
    period = Word(prefix.alphabet, sym[:p])
    b = Alphabet(("[0]",))
    theta2 = Antimorphism.reversal(b)
    count = len(sym) // p
    v = Word(b, (0,) * count)
    phi = Morphism(b, prefix.alphabet, (period,))
    return SimplePathCoding(
        n=n, requested_n=n, path_alphabet=b, theta2=theta2, v_prefix=v,
        phi=phi, path_table={"[0]": period},
        occurrence_indices=tuple(range(0, count * p, p)),
        covered_start=0, covered_end=count * p, tail_length=len(sym) - count * p,
        flags={"periodic": True, "period_length": p})


def theorem1_decompose(theta: Antimorphism, prefix: Word, n: int) -> SimplePathCoding:
    """Recode the prefix over the alphabet of its n-simple paths.

    The coding length is bumped to the smallest n' >= n whose length-n'
    prefix is special (so the coding starts at position 0); eventually
    periodic inputs take the unary branch.  Requires the factor set to be
    closed under Theta at the chosen length.
    """
    if theta.alphabet != prefix.alphabet:
        raise InputError("alphabet mismatch")
    if not 1 <= n <= len(prefix) // 4:
        raise InputError(f"coding length {n} unreasonable for |prefix|={len(prefix)}")

    sym = prefix.symbols
    specials = _special_tuples(sym, n)
    if not specials:
        return _periodic_coding(theta, prefix, n)

    chosen: Optional[int] = None
    for cand in range(n, min(n + SEARCH_BUDGET, len(prefix) // 4) + 1):
        sp = specials if cand == n else _special_tuples(sym, cand)
        if not sp:
            break
        if sym[:cand] in sp:
            chosen, specials = cand, sp
            break
    flags: dict = {}
    if chosen is None:
        chosen = n
        flags["aligned_at_first_special"] = True

    closed, witness = closed_under_theta(theta, prefix, chosen)
    if not closed:
        raise DecomposeError(
            "factor set is not closed under Theta at the coding length",
            {"n": chosen, "witness": witness.text if witness else None})

    positions = _positions(sym, chosen, specials)
    if len(positions) < 2:
        raise DecomposeError("fewer than two special-factor occurrences witnessed",
                             {"n": chosen})
    if positions[0] != 0:
        flags["aligned_at"] = positions[0]

    pair = theta.pairing
    paths, v_sym = segment_coding(sym, positions, chosen)
    letter_of = {e: k for k, e in enumerate(paths)}
    pairing = []
    for e in paths:
        te = tuple(pair[x] for x in reversed(e))
        if te not in letter_of:
            raise DecomposeError(
                "Theta-image of a simple path not witnessed; prefix too short",
                {"n": chosen, "path": Word(prefix.alphabet, e).text})
        pairing.append(letter_of[te])

    b_alpha = Alphabet(tuple(f"[{k}]" for k in range(len(paths))))
    theta2 = Antimorphism(b_alpha, tuple(pairing))
    images = tuple(Word(prefix.alphabet, e[:len(e) - chosen]) for e in paths)
    phi = Morphism(b_alpha, prefix.alphabet, images)
    v = Word(b_alpha, tuple(v_sym))
    path_table = {b_alpha.letters[k]: Word(prefix.alphabet, e)
                  for k, e in enumerate(paths)}

    covered = apply_morphism(phi, v)
    expected = sym[positions[0]:positions[-1]]
    if covered.symbols != expected:
        raise InvariantError("simple-path refactorization mismatch")

    return SimplePathCoding(
        n=chosen, requested_n=n, path_alphabet=b_alpha, theta2=theta2,
        v_prefix=v, phi=phi, path_table=path_table,
        occurrence_indices=tuple(positions),
        covered_start=positions[0], covered_end=positions[-1],
        tail_length=len(sym) - positions[-1], flags=flags)


@dataclass(frozen=True)
class RichnessConditionsReport:
    """The two sufficient conditions for richness of a recoded word."""

    condition_i: bool
    condition_i_witnesses: tuple[Word, ...]
    condition_ii: bool
    condition_ii_witness: Optional[str]
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
    # for the factors w up to max_factor_len, ordered by (|w|, first
    # occurrence of w, start); lengths stop once REPORTED_WITNESSES are found.
    # Occurrences of w and Theta(w) share the class min(w, Theta(w)), so one
    # sweep per length sees each pair of consecutive marks of a class; it is
    # a minimal segment for w exactly when the later mark is Theta(w).
    pair = theta2.pairing
    if v_prefix._bytes is None:
        seq = v_prefix.symbols

        def image(f):
            return tuple(pair[x] for x in reversed(f))
    else:
        seq = v_prefix._bytes
        table = bytes(pair) + bytes(range(len(pair), 256))

        def image(f):
            return f[::-1].translate(table)
    witnesses: list[Word] = []
    for length in range(1, min(max_factor_len, len(seq)) + 1):
        seen: dict = {}     # factor -> (its Theta-image, first occurrence)
        last: dict = {}     # class -> (start, factor) of its latest mark
        found: dict = {}    # segment -> (first occurrence of w, start)
        for i in range(len(seq) - length + 1):
            g = seq[i:i + length]
            info = seen.get(g)
            if info is None:
                info = seen[g] = (image(g), i)
            tg = info[0]
            cls = min(g, tg)
            prev = last.get(cls)
            last[cls] = (i, g)
            if prev is None or prev[1] != tg:
                continue
            i1, h = prev
            seg = seq[i1:i + length]
            if seg not in found and image(seg) != seg:
                found[seg] = (seen[h][1], i1)
        witnesses.extend(Word(v_prefix.alphabet, tuple(seg))
                         for seg in sorted(found, key=found.__getitem__))
        if len(witnesses) >= REPORTED_WITNESSES:
            break
    return witnesses


def richness_conditions_check(theta2: Antimorphism, v_prefix: Word,
                              max_factor_len: Optional[int] = None
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
    witnesses: list[Word] = []
    if defect(theta2, v_prefix) != 0:
        witnesses = _mirror_bounded_witnesses(theta2, v_prefix, max_factor_len)
    cond_ii = True
    cond_ii_witness = None
    for a in range(len(theta2.alphabet)):
        if theta2.pairing[a] == a:
            continue
        ok, idx = occurrences_alternate(
            theta2, v_prefix, Word(v_prefix.alphabet, (a,)))
        if not ok:
            cond_ii = False
            cond_ii_witness = f"letter {theta2.alphabet.letters[a]} at index {idx}"
            break
    return RichnessConditionsReport(
        condition_i=not witnesses,
        condition_i_witnesses=tuple(witnesses[:REPORTED_WITNESSES]),
        condition_ii=cond_ii, condition_ii_witness=cond_ii_witness,
        max_factor_len=max_factor_len)


# --- return-word recoding ----------------------------------------------------

@dataclass(frozen=True)
class ReturnWordCoding:
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
    return (p + apply_antimorphism(theta, q)).symbols == (q + p).symbols


def verify_eq4(theta: Antimorphism, phi: Morphism, p: Word, w: Word) -> bool:
    """Letter-for-letter check of Theta(phi(w) p) = phi(reverse(w)) p."""
    lhs = apply_antimorphism(theta, apply_morphism(phi, w) + p)
    rev = Word(w.alphabet, tuple(reversed(w.symbols)))
    rhs = apply_morphism(phi, rev) + p
    return lhs.symbols == rhs.symbols


def _candidate_prefix_lengths(theta: Antimorphism,
                              prefix: Word) -> tuple[int, list[int]]:
    # the empirical threshold (longest factor with a non-palindromic complete
    # return, times the safety margin) and the Theta-palindromic prefix
    # lengths from it up to a quarter of the prefix, ascending
    worst = max(crw_violation_lengths(theta, prefix.symbols), default=0)
    target = max(1, DEFAULT_SAFETY_MARGIN * worst)
    return target, [length for length in pal_prefix_lengths(theta, prefix.symbols)
                    if target <= length <= len(prefix) // 4]


def _return_coding(theta: Antimorphism, prefix: Word,
                   p: Word) -> tuple[Optional[ReturnWordCoding], Optional[dict]]:
    # the coding over the return words of p, or None and why p does not
    # qualify: fewer than 3 occurrences or a non-palindromic complete return
    sym = prefix.symbols
    m = len(p)
    occ = occurrences(prefix, p)
    if len(occ) < 3:
        return None, {"p": p.text, "reason": "fewer than 3 occurrences"}
    complete, v_sym = segment_coding(sym, occ, m)
    for cr in complete:
        if not symbols_are_theta_palindrome(theta.pairing, cr):
            return None, {"p": p.text,
                          "violating_return": Word(prefix.alphabet, cr).text}
    b_alpha = Alphabet(tuple(str(i + 1) for i in range(len(complete))))
    ret_words = tuple(Word(prefix.alphabet, cr[:len(cr) - m]) for cr in complete)
    phi = Morphism(b_alpha, prefix.alphabet, ret_words)
    v = Word(b_alpha, tuple(v_sym))
    covered = apply_morphism(phi, v)
    if covered.symbols != sym[:occ[-1]]:
        raise InvariantError("return-word refactorization mismatch")
    eq3_ok = all(verify_eq3(theta, p, q) for q in ret_words)
    coding = ReturnWordCoding(
        p=p, return_alphabet=b_alpha, returns=ret_words, phi=phi, v_prefix=v,
        occurrence_indices=tuple(occ), covered_length=occ[-1],
        tail_length=len(sym) - occ[-1], eq3_ok=eq3_ok)
    return coding, None


def theorem2_decompose(theta: Antimorphism, prefix: Word,
                       p_hint: Optional[Word] = None) -> ReturnWordCoding:
    """Derived-word recoding over the return words of a Theta-palindromic
    prefix p.

    Without a hint, p is the shortest Theta-palindromic prefix whose length
    clears the empirical complete-return-word threshold (times the safety
    margin) and whose witnessed complete returns are all Theta-palindromes.
    """
    if theta.alphabet != prefix.alphabet:
        raise InputError("alphabet mismatch")
    sym = prefix.symbols

    if p_hint is not None:
        if p_hint.symbols != sym[:len(p_hint)]:
            raise DecomposeError("p_hint is not a prefix of the word",
                                 {"p": p_hint.text})
        if not symbols_are_theta_palindrome(theta.pairing, p_hint.symbols):
            raise DecomposeError("p_hint is not a Theta-palindrome",
                                 {"p": p_hint.text})
        coding, info = _return_coding(theta, prefix, p_hint)
        if coding is None:
            raise DecomposeError("hinted p has a non-palindromic complete return "
                                 "or too few occurrences", info)
        return coding

    target, lengths = _candidate_prefix_lengths(theta, prefix)
    best_failure: Optional[dict] = None
    for length in lengths[:MAX_CANDIDATES]:
        coding, best_failure = _return_coding(theta, prefix, prefix.factor(0, length))
        if coding is not None:
            return coding
    raise DecomposeError(
        "no qualifying Theta-palindromic prefix found",
        {"empirical_threshold": target, "best_candidate": best_failure})


# --- full pipeline for closure-generated words -------------------------------

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
    u = src.prefix(scale)

    target, lengths = _candidate_prefix_lengths(theta, u)
    sym = u.symbols
    chosen: Optional[Word] = None
    for length in lengths:
        left, right = special_extensions(sym, length)
        if sym[:length] in left and sym[:length] in right:
            chosen = u.factor(0, length)
            break
    if chosen is None:
        raise DecomposeError(
            "no bispecial Theta-palindromic prefix above the empirical threshold",
            {"empirical_threshold": target, "scale": scale})

    coding = theorem2_decompose(theta, u, p_hint=chosen)
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
        "p": chosen.text,
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
