"""Slow reference implementations the library is cross-checked against.

Each one computes its answer independently of the shared ``pal_index``:
either straight from the definition or by the per-letter loop that the
index-based reader replaced.  The theorem 2/3 prefix selections are the
exception: they take the candidate lengths from the library
(``decompose._candidate_prefix_lengths``, itself pinned against the
complete-return scan in ``test_crw_lemma.py``) and replace only how p is
chosen and coded.  The theorem 1 selection lists the special factors of
every length it tries, and so does the Arnoux-Rauzy check; both test closure
on the factor set of every length up to theirs, where the library reads the
length-n windows (theorem 1) or one suffix automaton.  The theorem 1
selection takes the unary branch's period from a failure function, and a
second closure test puts the windows of the prefix's text in a set of
their own, where the library reads both from the window table of its cut.
The condition (i) sweeps visit every window of every length, where the
library cuts each distinct minimal segment once from a sorted suffix table;
one tests each segment in a radius table, the other compares it with its
Theta-image.  The sorted suffix table scan cuts the segments of every factor,
where the library gives a factor y a that is no Theta-palindrome the
segments of y when y has one right extension and Theta(y) one left extension
in v.
Condition (ii) merges the occurrence lists of each letter and its image, or
makes one pass over v, where the library searches one text of v's positions
sorted by pair; equations (3) and (4) are checked on ``Word``s, where the
library compares symbol tuples, and phi(v) is compared with the prefix as a
tuple, where the library joins the images' encoded texts.  The palindromic
tree keeps one object per node, where the library keeps columns; the
per-letter loops build it.  The complete-return scan reports each violation
as two ``Word``s spelled one by one, where the library keeps spans of the
prefix and spells them from one text.  Occurrences are found by comparing a
tuple slice at every position, where the library searches one code point per
letter, and letters are encoded through the codec registry by name, where
the library calls the native byte order's decoder itself; the condition (i)
sweeps choose bytes or tuples from the letters they meet, and the sorted
suffix table scan searches fixed-width big-endian bytes, hitting only
offsets at a multiple of the width, and finds the common prefix of two
neighbours in its table letter by letter, where the library bisects over
slice equality.
A Theta-palindrome is tested letter by letter against the mirrored letter,
where the library compares a word with its Theta-image, and the tree test of
Proposition 1 builds an adjacency list and walks it depth first, where the
library makes one union-find pass over the edges.  The Thue-Morse letter at
i is the parity of the ones in the binary expansion of i, where the library
doubles a block of bytes by its complement.
"""
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from palrich.core import (
    Alphabet,
    Antimorphism,
    InputError,
    InvariantError,
    Morphism,
    Word,
    _check_same,
    occurrences,
    segment_coding,
)
from palrich.decompose import (
    REPORTED_WITNESSES,
    SEARCH_BUDGET,
    DecomposeError,
    ReturnWordCoding,
    SimplePathCoding,
    _candidate_prefix_lengths,
    _periodic_coding,
    verify_eq3,
)
from palrich.generators import ArnouxRauzyReport, DirectiveSequence, WordSource
from palrich.palindromes import DefectProfile
from palrich.rauzy import (
    Proposition1Result,
    SpecialFactors,
    SuperReducedRauzyGraph,
    special_extensions,
)
from palrich.returns import CrwReport, mirror_bounded_palindromicity
from conftest import factor_tuples

MAX_CANDIDATES = 16     # palindromic prefixes tried by letter_check_theorem2


def symbols_are_theta_palindrome(pairing, symbols) -> bool:
    """Each letter against the image of its mirror, from both ends inwards."""
    i, j = 0, len(symbols) - 1
    while i <= j:
        if symbols[i] != pairing[symbols[j]]:
            return False
        i += 1
        j -= 1
    return True


def apply_antimorphism(theta: Antimorphism, w: Word) -> Word:
    """Reverse w and replace each letter by its pairing image."""
    _check_same(theta, w)
    return Word(w.alphabet, theta.image(w.symbols))


def apply_morphism(phi: Morphism, w: Word) -> Word:
    """phi(w) as a ``Word``, each letter's image appended in turn."""
    if w.alphabet != phi.source:
        raise InputError("alphabet mismatch: word is not over the morphism source")
    out: list[int] = []
    for s in w.symbols:
        out.extend(phi.images[s].symbols)
    return Word(phi.target, tuple(out))


def dfs_check_proposition1(g: SuperReducedRauzyGraph,
                           theta: Antimorphism) -> Proposition1Result:
    """``check_proposition1`` testing each loop letter by letter, and the
    tree condition as |E| = |V| - 1 non-loop edges that reach every vertex
    from one of them, depth first."""
    pair = theta.pairing
    loops_ok = all(symbols_are_theta_palindrome(pair, e.words[0])
                   for e in g.edges if e.is_loop)
    verts = g.vertices
    non_loops = [e for e in g.edges if not e.is_loop]
    if not verts:
        tree_ok = len(non_loops) == 0
    elif len(non_loops) != len(verts) - 1:
        tree_ok = False
    else:
        adj: dict[tuple, list[tuple]] = {v: [] for v in verts}
        for e in non_loops:
            a, b = e.endpoints
            adj[a].append(b)
            adj[b].append(a)
        start = next(iter(verts))
        stack = [start]
        reached = {start}
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in reached:
                    reached.add(u)
                    stack.append(u)
        tree_ok = len(reached) == len(verts)
    return Proposition1Result(loops_palindromic=loops_ok,
                              tree_after_loop_removal=tree_ok)


def proposition1_holds(res: Proposition1Result) -> bool:
    """Proposition 1's criterion: every loop a Theta-palindrome and a tree
    once the loops are removed."""
    return res.loops_palindromic and res.tree_after_loop_removal


def bispecial(spec: SpecialFactors) -> frozenset[Word]:
    """The factors of ``spec`` that are both left and right special."""
    return spec.left_special & spec.right_special


def distinct_theta_palindromes_naive(theta: Antimorphism, w: Word) -> set[Word]:
    """Exact set of Theta-palindromic factors, epsilon included.

    Dynamic programming over factor spans; quadratic, intended as the oracle
    for small words.
    """
    if theta.alphabet != w.alphabet:
        raise InputError("alphabet mismatch")
    s = w.symbols
    pair = theta.pairing
    n = len(s)
    out: set[Word] = {Word(w.alphabet, ())}
    # prevK[i] == factor of length K starting at i is a Theta-palindrome
    prev2 = bytearray(b"\x01" * (n + 1))  # length 0 spans: all palindromic
    prev1 = bytearray(n)
    for i in range(n):
        if s[i] == pair[s[i]]:
            prev1[i] = 1
            out.add(Word(w.alphabet, s[i:i + 1]))
    for length in range(2, n + 1):
        cur = bytearray(n - length + 1)
        inner = prev2 if length % 2 == 0 else prev1
        for i in range(n - length + 1):
            j = i + length - 1
            if s[i] == pair[s[j]] and inner[i + 1]:
                cur[i] = 1
                out.add(Word(w.alphabet, s[i:j + 1]))
        if length % 2 == 0:
            prev2 = cur
        else:
            prev1 = cur
    return out


_HASH_MOD = (1 << 61) - 1
_HASH_BASE = 1_000_003


def count_theta_palindromes_expand(theta: Antimorphism, w: Word) -> int:
    """Count distinct Theta-palindromic factors by center expansion.

    Independent of PalIndex: every palindromic occurrence is enumerated by
    expanding around its center, and distinct factors are deduplicated with a
    rolling hash.  O(n + occurrences), which is O(n^2) in the worst case.
    """
    if theta.alphabet != w.alphabet:
        raise InputError("alphabet mismatch")
    s = w.symbols
    pair = theta.pairing
    n = len(s)
    h = [0] * (n + 1)
    pw = [1] * (n + 1)
    for i, x in enumerate(s):
        h[i + 1] = (h[i] * _HASH_BASE + x + 1) % _HASH_MOD
        pw[i + 1] = (pw[i] * _HASH_BASE) % _HASH_MOD
    seen: set[tuple[int, int]] = set()

    def expand(i: int, j: int) -> None:
        while True:
            seen.add((j - i + 1, (h[j + 1] - h[i] * pw[j + 1 - i]) % _HASH_MOD))
            if i == 0 or j == n - 1 or s[i - 1] != pair[s[j + 1]]:
                return
            i -= 1
            j += 1

    for c in range(n):
        if s[c] == pair[s[c]]:
            expand(c, c)
        if c + 1 < n and s[c] == pair[s[c + 1]]:
            expand(c, c + 1)
    return len(seen) + 1  # epsilon


class _Node:
    __slots__ = ("length", "link", "next", "first_end", "lps_of")

    def __init__(self, length: int):
        self.length = length
        self.link: "_Node" = self  # patched right after construction
        self.next: dict[int, "_Node"] = {}
        self.first_end = -1
        self.lps_of = 0     # non-empty prefixes whose lps this node is


class NodePalIndex:
    """``PalIndex`` with one object per node, holding its length, suffix link,
    transitions, first end and lps count, each letter appended by its own
    call: the columnar index is compared with it column by column."""

    def __init__(self, theta: Antimorphism):
        self.theta = theta
        self._pair = theta.pairing
        self._sym: list[int] = []
        self._root_m1 = _Node(-1)
        self._root_0 = _Node(0)
        self._root_0.link = self._root_m1
        self._nodes: list[_Node] = [self._root_m1, self._root_0]
        self._last = self._root_0

    # -- queries --------------------------------------------------------------

    @property
    def pal_count(self) -> int:
        """#PalTheta of the processed prefix, epsilon included."""
        return len(self._nodes) - 1

    @property
    def lps_length(self) -> int:
        return self._last.length

    def palindrome_spans(self) -> list[tuple[int, int]]:
        """(start, length) of the first occurrence of each distinct non-empty
        Theta-palindromic factor seen, in order of that occurrence's end."""
        return [(node.first_end + 1 - node.length, node.length)
                for node in self._nodes[2:]]

    # -- construction ---------------------------------------------------------

    def _walk(self, node: _Node, pos: int, ta: int, a: int) -> Optional[_Node]:
        sym = self._sym
        while True:
            length = node.length
            if length == -1:
                return node if ta == a else None
            i = pos - length - 1
            if i >= 0 and sym[i] == ta:
                return node
            node = node.link

    def append(self, a: int) -> None:
        if not 0 <= a < len(self.theta.alphabet):
            raise InputError(f"invalid letter index {a}")
        sym = self._sym
        sym.append(a)
        pos = len(sym) - 1
        ta = self._pair[a]

        found = self._walk(self._last, pos, ta, a)
        if found is None:
            self._last = self._root_0
        else:
            node = found.next.get(a)
            if node is not None:
                self._last = node
            else:
                node = _Node(found.length + 2)
                if node.length == 1:
                    node.link = self._root_0
                else:
                    up = self._walk(found.link, pos, ta, a)
                    node.link = self._root_0 if up is None else up.next[a]
                node.first_end = pos
                found.next[a] = node
                self._nodes.append(node)
                self._last = node
        self._last.lps_of += 1

    def extend(self, symbols) -> None:
        for s in symbols:
            self.append(s)


def slice_occurrences(hay: tuple, needle: tuple) -> list[int]:
    """``core.occurrences`` on symbol tuples: every position's slice compared."""
    m = len(needle)
    return [i for i in range(len(hay) - m + 1) if hay[i:i + m] == needle]


def concat(u: Word, v: Word) -> Word:
    """The word u v; both must be over one alphabet."""
    if u.alphabet != v.alphabet:
        raise InputError("cannot concatenate words over different alphabets")
    return Word(u.alphabet, u.symbols + v.symbols)


def occurrence_count(w: Word, f: Word) -> int:
    """Occurrences of the factor f in w, found one by one."""
    return len(slice_occurrences(w.symbols, f.symbols))


@dataclass(frozen=True)
class WordCrwReport:
    checked_factors: int
    violations: tuple[tuple[Word, Word], ...]   # (factor, complete return)
    empirical_threshold: int

    def describe(self) -> dict:
        return {
            "min_len": 1,
            "checked_factors": self.checked_factors,
            "violations": [{"factor": f.text, "complete_return": cr.text}
                           for f, cr in self.violations],
            "empirical_threshold": self.empirical_threshold,
        }


def crw_words(report: CrwReport) -> list[tuple[Word, Word]]:
    """Each violation of a ``crw_palindromicity_scan`` report as its factor
    and complete return, ``Word``s cut from the report's prefix at the spans."""
    return [tuple(report.prefix.factor(a, a + m) for a, m in spans)
            for spans in report.violations]


def crw_outcome(report) -> tuple[dict, list[tuple[Word, Word]]]:
    """What a complete-return report says: its JSON, and each violation's
    factor and complete return as ``Word``s."""
    pairs = report.violations if isinstance(report, WordCrwReport) else \
        crw_words(report)
    return report.describe(), list(pairs)


def letter_check_crw_scan(theta: Antimorphism, prefix: Word) -> WordCrwReport:
    """``crw_palindromicity_scan`` testing each complete return letter by
    letter and building a ``Word`` for each violation."""
    idx = NodePalIndex(theta)
    sym = prefix.symbols
    idx.extend(sym)
    pair = theta.pairing
    violations: list[tuple[Word, Word]] = []
    checked = 0
    worst = 0
    pals = [sym[start:start + length] for start, length in idx.palindrome_spans()]
    for p in sorted(pals, key=lambda x: (len(x), x)):
        occ = slice_occurrences(sym, p)
        if len(occ) < 2:
            continue
        checked += 1
        bad = [cr for cr in segment_coding(sym, occ, len(p))[0]
               if not symbols_are_theta_palindrome(pair, cr)]
        if bad:
            ab = prefix.alphabet
            factor = Word(ab, p)
            violations.extend((factor, Word(ab, cr)) for cr in bad)
            worst = max(worst, len(p))
    return WordCrwReport(checked_factors=checked, violations=tuple(violations),
                         empirical_threshold=worst + 1)


def letter_check_return_coding(theta: Antimorphism, prefix: Word, p: Word
                               ) -> tuple[Optional[ReturnWordCoding], Optional[dict]]:
    """The coding over the return words of p, or None and why p does not
    qualify: fewer than 3 occurrences, or a complete return that is not a
    Theta-palindrome when tested letter by letter."""
    sym = prefix.symbols
    m = len(p)
    occ = slice_occurrences(sym, p.symbols)
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
    if apply_morphism(phi, v).symbols != sym[:occ[-1]]:
        raise InvariantError("return-word refactorization mismatch")
    coding = ReturnWordCoding(
        p=p, phi=phi, v_prefix=v, occurrence_indices=tuple(occ),
        tail_length=len(sym) - occ[-1],
        eq3_ok=all(verify_eq3(theta, p, q) for q in ret_words))
    return coding, None


def word_level_verify_eq3(theta: Antimorphism, p: Word, q: Word) -> bool:
    """``verify_eq3`` building p Theta(q) and q p as ``Word``s."""
    return concat(p, apply_antimorphism(theta, q)).symbols == concat(q, p).symbols


def word_level_verify_eq4(theta: Antimorphism, phi: Morphism, p: Word,
                          w: Word) -> bool:
    """``verify_eq4`` building each side of Theta(phi(w) p) = phi(reverse(w)) p
    as a ``Word``."""
    lhs = apply_antimorphism(theta, concat(apply_morphism(phi, w), p))
    rev = Word(w.alphabet, tuple(reversed(w.symbols)))
    rhs = concat(apply_morphism(phi, rev), p)
    return lhs.symbols == rhs.symbols


def letter_check_theorem2(theta: Antimorphism, prefix: Word) -> ReturnWordCoding:
    """``theorem2_decompose`` rejecting each candidate p by its occurrence
    count or by a complete return tested letter by letter."""
    target, lengths = _candidate_prefix_lengths(theta, prefix)
    best_failure: Optional[dict] = None
    for length in lengths[:MAX_CANDIDATES]:
        coding, best_failure = letter_check_return_coding(
            theta, prefix, prefix.factor(0, length))
        if coding is not None:
            return coding
    raise DecomposeError(
        "no qualifying Theta-palindromic prefix found",
        {"empirical_threshold": target, "best_candidate": best_failure})


def special_extensions_theorem3_coding(theta: Antimorphism, u: Word
                                       ) -> tuple[int, ReturnWordCoding]:
    """Theorem 3's threshold and coding: the first candidate p that is both
    left and right special among all length-|p| factors, coded with the
    letter-by-letter filter."""
    target, lengths = _candidate_prefix_lengths(theta, u)
    sym = u.symbols
    for length in lengths:
        left, right = special_extensions(sym, length)
        if sym[:length] in left and sym[:length] in right:
            coding, info = letter_check_return_coding(theta, u, u.factor(0, length))
            if coding is None:
                raise DecomposeError("hinted p has a non-palindromic complete "
                                     "return or too few occurrences", info)
            return target, coding
    raise DecomposeError(
        "no bispecial Theta-palindromic prefix above the empirical threshold",
        {"empirical_threshold": target, "scale": len(u)})


def _special_tuples(sym: tuple, n: int) -> set[tuple]:
    left, right = special_extensions(sym, n)
    return left.keys() | right.keys()


def kmp_smallest_period(sym: tuple) -> int:
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


def text_window_closed_at(theta: Antimorphism, text: str, n: int) -> bool:
    """Is the factor set of ``text`` (an encoded word) closed under Theta up
    to length n <= |text|?  A factor no longer than n with an absent image
    lies in a length-n window, whose image is absent too: so the image of
    each window, its slice of the mirror text, must be a window.  O(|w| n),
    as theorem 1's cut, and no suffix automaton is built."""
    windows = {text[i:i + n] for i in range(len(text) - n + 1)}
    return all(f[::-1].translate(theta.pairing) in windows for f in windows)


def per_length_theorem1(theta: Antimorphism, prefix: Word,
                        n: int) -> SimplePathCoding:
    """``theorem1_decompose`` listing the special factors of each length from
    n on until the prefix of that length is one of them, stopping at a
    length with none, testing closure on each length's factor set, and
    taking the unary branch's period from a failure function."""
    if theta.alphabet != prefix.alphabet:
        raise InputError("alphabet mismatch")
    if not 1 <= n <= len(prefix) // 4:
        raise InputError(f"coding length {n} unreasonable for |prefix|={len(prefix)}")
    sym = prefix.symbols
    specials = _special_tuples(sym, n)
    if not specials:
        return _periodic_coding(prefix, n, kmp_smallest_period(sym))
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
    closed, witness = factor_set_closed_under_theta(theta, prefix, chosen)
    if not closed:
        raise DecomposeError(
            "factor set is not closed under Theta at the coding length",
            {"n": chosen, "witness": witness.text})
    positions = [i for i in range(len(sym) - chosen + 1)
                 if sym[i:i + chosen] in specials]
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
    images = tuple(Word(prefix.alphabet, e[:len(e) - chosen]) for e in paths)
    phi = Morphism(b_alpha, prefix.alphabet, images)
    v = Word(b_alpha, tuple(v_sym))
    if apply_morphism(phi, v).symbols != sym[positions[0]:positions[-1]]:
        raise InvariantError("simple-path refactorization mismatch")
    return SimplePathCoding(
        n=chosen, requested_n=n,
        theta2=Antimorphism(b_alpha, tuple(pairing)), v_prefix=v, phi=phi,
        path_table={b_alpha.letters[k]: Word(prefix.alphabet, e)
                    for k, e in enumerate(paths)},
        occurrence_indices=tuple(positions),
        tail_length=len(sym) - positions[-1], flags=flags)


def factor_loop_condition_i(theta2: Antimorphism, v: Word,
                            max_factor_len: int) -> list[Word]:
    """Every condition (i) witness of ``richness_conditions_check``:
    ``mirror_bounded_palindromicity`` of each distinct factor, by length and
    then by first occurrence."""
    sym = v.symbols
    witnesses: list[Word] = []
    for length in range(1, max_factor_len + 1):
        seen: set[tuple] = set()
        for i in range(len(sym) - length + 1):
            f = sym[i:i + length]
            if f in seen:
                continue
            seen.add(f)
            witnesses.extend(
                mirror_bounded_palindromicity(theta2, v, Word(v.alphabet, f))[1])
    return witnesses


def theta_pal_radii(pairing, seq) -> list[int]:
    """Manacher's table: entry s + e is the length of the longest
    Theta-palindrome centred like ``seq[s:e]``, -1 on a letter a != Theta(a),
    so ``seq[s:e]`` is one iff entry s + e >= e - s.  Mirrored inside a
    Theta-palindrome, f reads Theta(f), one exactly when f is, with the same
    extensions.  An odd entry starts at -1, so its first step tests a."""
    n = len(seq)
    radii: list[int] = []
    centre = right = 0      # entry and end of the palindrome reaching furthest
    for c in range(2 * n + 1):
        size = min(radii[2 * centre - c], 2 * right - c) if c < 2 * right else -(c % 2)
        s, e = (c - size) // 2, (c + size) // 2
        while s > 0 and e < n and seq[s - 1] == pairing[seq[e]]:
            s, e = s - 1, e + 1
        radii.append(e - s)
        if e > right:
            centre, right = c, e
    return radii


def window_text(theta2: Antimorphism, v: Word):
    """v as bytes with Theta as a reversed ``translate`` when its letters and
    their images are all below 256 (whatever the alphabet size), else as the
    symbol tuple with ``Antimorphism.image``."""
    used = set(v.symbols)
    images = {a: theta2.pairing[a] for a in used}
    if max((*used, *images.values()), default=0) >= 256:
        return v.symbols, theta2.image
    table = bytearray(range(256))
    for a, b in images.items():
        table[a] = b
    return bytes(v.symbols), lambda f: f[::-1].translate(table)


def radius_table_condition_i(theta2: Antimorphism, v: Word,
                             max_factor_len: int) -> list[Word]:
    """``decompose._mirror_bounded_witnesses`` as one sweep of every window
    per length, testing each minimal segment in a Theta-palindrome radius
    table built once per word."""
    seq, image = window_text(theta2, v)
    radii = theta_pal_radii(theta2.pairing, seq)
    witnesses: list[Word] = []
    for length in range(1, min(max_factor_len, len(seq)) + 1):
        seen: dict = {}     # factor -> (Theta-image, first occurrence, class)
        last: dict = {}     # class -> (start, factor) of its latest mark
        found: dict = {}    # segment -> (first occurrence of w, start)
        for i in range(len(seq) - length + 1):
            g = seq[i:i + length]
            info = seen.get(g)
            if info is None:
                tg = image(g)
                info = seen[g] = (tg, i, min(g, tg))
            cls = info[2]
            prev = last.get(cls)
            last[cls] = (i, g)
            if prev is None or prev[1] != info[0]:
                continue
            i1, end = prev[0], i + length
            if radii[i1 + end] < end - i1:
                found.setdefault(seq[i1:end], (seen[prev[1]][1], i1))
        witnesses.extend(Word(v.alphabet, tuple(seg))
                         for seg in sorted(found, key=found.__getitem__))
        if len(witnesses) >= REPORTED_WITNESSES:
            break
    return witnesses


def window_condition_i(theta2: Antimorphism, v: Word,
                       max_factor_len: int) -> list[Word]:
    """``radius_table_condition_i`` testing each minimal segment by
    comparing it with its Theta-image, and taking the class of each window
    with one ``min``."""
    seq, image = window_text(theta2, v)
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
        witnesses.extend(Word(v.alphabet, tuple(seg))
                         for seg in sorted(found, key=found.__getitem__))
        if len(witnesses) >= REPORTED_WITNESSES:
            break
    return witnesses


def _byte_width(alphabet: Alphabet) -> int:
    """Bytes per letter of ``_encode_bytes``: 1 up to 256 letters."""
    return max(1, ((len(alphabet) - 1).bit_length() + 7) // 8)


def _encode_bytes(symbols, width: int) -> bytes:
    """Letter indices as ``width`` big-endian bytes each, which keeps the
    order of equal-length tuples; for width 1, ``bytes`` builds them at once."""
    if width == 1:
        return bytes(symbols)
    return b"".join([a.to_bytes(width, "big") for a in symbols])


def _aligned_find(text: bytes, needle: bytes, width: int, start: int,
                  end: int) -> int:
    """First offset of ``needle`` in ``text[start:end]`` at a multiple of
    ``width`` (as ``start`` is), or -1: other hits straddle two letters."""
    i = text.find(needle, start, end)
    while i % width and i > 0:
        i = text.find(needle, i + width - i % width, end)
    return i


def sorted_suffix_condition_i(theta2: Antimorphism, v_prefix: Word,
                              max_factor_len: int) -> list[Word]:
    """``decompose._mirror_bounded_witnesses`` cutting the minimal segments
    of every factor at every length from the sorted suffix table, where the
    library carries them over from a factor's prefix one letter shorter when
    that prefix has one right extension and its Theta-image one left one.

    Every minimal factor from w to Theta(w) that is not a Theta-palindrome,
    for |w| up to max_factor_len, by (|w|, first occurrence of w, of the
    factor).  No mark w or Theta(w) starts strictly inside such a segment u,
    so each occurrence of u is one.  A table of suffixes sorted by their
    first 2 * max_factor_len letters holds those starting with a shorter u in
    one block, cut once; a longer u is cut at each of its occurrences.
    """
    sym, width = v_prefix.symbols, _byte_width(v_prefix.alphabet)
    seq = _encode_bytes(sym, width)
    mirror = _encode_bytes(theta2.image(sym), width)   # Theta(seq[i:j]) is mirror[n - j:n - i]
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
                q = _aligned_find(seq, x, width, i1 + width, n)
                t = q if tx == x else _aligned_find(seq, tx, width, i1 + width,
                                                    n if q < 0 else q + size - width)
                mark = t if t >= 0 else q
                u = seq[i1:mark + size]
                k = j + 1 if mark < 0 or len(u) > 2 * span else bisect_right(
                    sa, u, j + 1, e, key=lambda i, m=len(u): seq[i:i + m])
                if t >= 0 and u not in found and mirror[n - i1 - len(u):n - i1] != u:
                    found[u] = (min(sa[s:e]), min(sa[j:k]))
                j = k
        witnesses.extend(Word.unchecked(v_prefix.alphabet, sym[i // width:(i + len(u)) // width])
                         for u, (_, i) in sorted(found.items(), key=lambda kv: kv[1]))
        if len(witnesses) >= REPORTED_WITNESSES:
            break
    return witnesses


def occurrences_alternate(theta: Antimorphism, prefix: Word,
                          w: Word) -> tuple[bool, Optional[int]]:
    """Do occurrences of w and Theta(w) strictly alternate in the prefix?

    Trivially true when w is a Theta-palindrome.  Returns the index of the
    first occurrence breaking the alternation otherwise.
    """
    if theta.alphabet != prefix.alphabet or w.alphabet != prefix.alphabet:
        raise InputError("alphabet mismatch")
    tw = theta.image(w.symbols)
    if tw == w.symbols:
        return True, None
    occ_w = occurrences(prefix, w)
    occ_t = occurrences(prefix, Word(prefix.alphabet, tw))
    merged = sorted([(i, 0) for i in occ_w] + [(i, 1) for i in occ_t])
    for (i1, l1), (i2, l2) in zip(merged, merged[1:]):
        if l1 == l2:
            return False, i2
    return True, None


def one_pass_condition_ii(theta2: Antimorphism,
                          v: Word) -> tuple[bool, Optional[str]]:
    """Condition (ii) of ``richness_conditions_check`` in one pass over v: for
    each pair {a, Theta(a)}, a < Theta(a), the first index where a letter of
    the pair follows itself; the smallest failing a is reported."""
    pair, last, failed = theta2.pairing, {}, {}
    for i, x in enumerate(v.symbols):
        a = min(x, pair[x])
        if a != pair[a] and last.get(a) == x:
            failed.setdefault(a, i)
        last[a] = x
    a = min(failed, default=None)
    if a is None:
        return True, None
    return False, f"letter {theta2.alphabet.letters[a]} at index {failed[a]}"


def tuple_refactorization_holds(prefix: Word, phi: Morphism, codes,
                                cut) -> bool:
    """``decompose._recode``'s check as symbol tuples: phi(codes) is the
    prefix from the first to the last point of the cut."""
    return phi.image(codes) == prefix.symbols[cut[0]:cut[-1]]


def named_codec_encode(symbols) -> str:
    """``core.encode`` through the codec registry, by the byte order's name."""
    return array("I", symbols).tobytes().decode(f"utf-32-{sys.byteorder[0]}e",
                                                "surrogatepass")


def every_letter_condition_ii(theta2: Antimorphism,
                              v: Word) -> tuple[bool, Optional[str]]:
    """Condition (ii) of ``richness_conditions_check`` testing every letter
    not fixed by Theta, in index order."""
    for a in range(len(theta2.alphabet)):
        if theta2.pairing[a] == a:
            continue
        ok, idx = occurrences_alternate(theta2, v, Word(v.alphabet, (a,)))
        if not ok:
            return False, f"letter {theta2.alphabet.letters[a]} at index {idx}"
    return True, None


def special_extensions_arnoux_rauzy_check(prefix: Word, max_len: int,
                                          valence: int) -> ArnouxRauzyReport:
    """``arnoux_rauzy_check`` listing the special factors of each length,
    with closure from the factor sets of each length."""
    closed, witness = factor_set_closed_under_theta(
        Antimorphism.reversal(prefix.alphabet), prefix, max_len)
    for n in range(1, max_len + 1):
        if not closed and n == len(witness):
            return ArnouxRauzyReport(False, valence, max_len, n,
                                     "factor set not closed under reversal")
        left, right = special_extensions(prefix.symbols, n)
        if len(left) != 1 or len(right) != 1:
            return ArnouxRauzyReport(
                False, valence, max_len, n,
                f"expected one LS and one RS factor, got "
                f"{len(left)} LS / {len(right)} RS")
        (lefts,), (rights,) = left.values(), right.values()
        if len(lefts) != valence or len(rights) != valence:
            return ArnouxRauzyReport(
                False, valence, max_len, n,
                f"special factor valence {len(lefts)}/{len(rights)} != {valence}")
    return ArnouxRauzyReport(True, valence, max_len, None, None)


def factor_loop_palindromic_complexity(theta: Antimorphism, prefix: Word,
                                       max_length: int) -> list[int]:
    """P(0..max_length) by testing every distinct factor of each length."""
    pair = theta.pairing
    return [sum(1 for f in factor_tuples(prefix.symbols, n)
                if symbols_are_theta_palindrome(pair, f))
            for n in range(max_length + 1)]


def factor_set_complexity(prefix: Word, max_length: int) -> list[int]:
    """C(0..max_length) as the size of each length's factor set."""
    return [len(factor_tuples(prefix.symbols, n)) for n in range(max_length + 1)]


def factor_set_closed_under_theta(theta: Antimorphism, prefix: Word,
                                  n: int) -> tuple[bool, Optional[Word]]:
    """``closed_under_theta`` testing each length's factor set in turn, its
    windows in position order: the witness is the leftmost factor of the
    shortest failing length whose image is not in the set."""
    pair = theta.pairing
    sym = prefix.symbols
    for length in range(1, n + 1):
        facs = factor_tuples(sym, length)
        for i in range(len(sym) - length + 1):
            f = sym[i:i + length]
            if tuple(pair[x] for x in reversed(f)) not in facs:
                return False, Word(prefix.alphabet, f)
    return True, None


def append_loop_pal_prefix_lengths(theta: Antimorphism, prefix: Word) -> list[int]:
    """Lengths L >= 1 with prefix[:L] a Theta-palindrome: the lps after
    appending L letters is the whole prefix."""
    idx = NodePalIndex(theta)
    out = []
    for k, s in enumerate(prefix.symbols, start=1):
        idx.append(s)
        if idx.lps_length == k:
            out.append(k)
    return out


def append_loop_defect_profile(theta: Antimorphism, w: Word) -> DefectProfile:
    """Defect profile with #Pal read off the index after each append and
    gamma counted from the pairs met so far."""
    idx = NodePalIndex(theta)
    pair = theta.pairing
    met: set[frozenset] = set()
    values, gammas, pals = [0], [0], [1]
    for k, s in enumerate(w.symbols, start=1):
        idx.append(s)
        if pair[s] != s:
            met.add(frozenset((s, pair[s])))
        gammas.append(len(met))
        pals.append(idx.pal_count)
        values.append(k + 1 - len(met) - idx.pal_count)
    return DefectProfile(values=tuple(values), gammas=tuple(gammas),
                         pal_counts=tuple(pals))


class AppendLoopClosureSource(WordSource):
    """``ClosureSource`` completing each step to the closure through a
    private ``NodePalIndex``: the longest Theta-palindromic suffix of w_k a, read
    after appending every letter, decides what to append next."""

    kind = "theta_standard_seed"

    def __init__(self, theta: Antimorphism, seed: Word, directive: DirectiveSequence):
        self.alphabet = theta.alphabet
        self.directive = directive
        self._pair = theta.pairing
        self._idx = NodePalIndex(theta)
        self._buf: list[int] = []
        self._steps = 0
        self._close(list(seed.symbols))

    def _close(self, extra: list[int]) -> None:
        for s in extra:
            self._idx.append(s)
            self._buf.append(s)
        p_len = len(self._buf) - self._idx.lps_length
        for x in reversed(self._buf[:p_len]):
            t = self._pair[x]
            self._idx.append(t)
            self._buf.append(t)

    def prefix(self, n: int) -> Word:
        while len(self._buf) < n:
            self._steps += 1
            self._close([self.directive.letter(self._steps - 1)])
        return Word(self.alphabet, tuple(self._buf[:n]))


def popcount_thue_morse(n: int) -> tuple[int, ...]:
    """The first n Thue-Morse letters, letter i from the bits of i."""
    return tuple(bin(i).count("1") & 1 for i in range(n))
