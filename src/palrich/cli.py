"""Command-line frontend: analyses, Rauzy graphs, decompositions, generators.

Reports are deterministic for identical inputs and seed: JSON is emitted with
sorted keys, tables and graphs use lexicographic ordering, and all randomized
sampling is driven by the --seed flag (default 0).
"""
from __future__ import annotations

import argparse
import json
import random
import re
import sys
from itertools import chain

from . import __version__
from .core import (
    Alphabet,
    Antimorphism,
    InputError,
    InvariantError,
    MAX_LETTERS,
    Word,
)
from .complexity import (
    DEFAULT_SAFE_DIVISOR,
    check_inequality2,
    closed_under_theta,
    complexity_table,
    default_safe_length,
    is_rich_by_T,
)
from .decompose import (
    DecomposeError,
    richness_conditions_check,
    theorem1_decompose,
    theorem2_decompose,
    theorem3_pipeline,
    verify_eq4,
)
from .generators import (
    ClosureSource,
    DirectiveSequence,
    PeriodicSource,
    ThueMorseSource,
    WordSource,
    episturmian_source,
    fibonacci_source,
    tribonacci_source,
)
from .palindromes import defect, defect_profile
from .rauzy import build_graph, check_proposition1
from .returns import crw_palindromicity_scan

SCHEMA_VERSION = 1
EQ4_SAMPLES = 100  # random words on which --method return checks eq4


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


def word_from_file(path: str, tokens: bool = False) -> Word:
    """UTF-8 word file: one letter per character, or whitespace tokens; the
    alphabet is the sorted set of letters found."""
    text = _read_text(path)
    return Word.parse(text if tokens else "".join(text.split()), tokens=tokens)


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(t, str) for t in x)


def _theta_config(spec: str) -> tuple[list, list]:
    """The letters and pairs that ``pairs:a-b,c-c`` (its letters in order of
    first appearance) or a JSON config file {"letters": [...], "pairs":
    [["a", "b"], ["c", "c"], ...]} names, only their shape checked."""
    if spec.startswith("pairs:"):
        pairs = [part.split("-", 1) for part in spec[len("pairs:"):].split(",")]
        letters = list(dict.fromkeys(chain.from_iterable(pairs)))
    else:
        try:
            cfg = json.loads(_read_text(spec))
            letters, pairs = cfg["letters"], cfg["pairs"]
        except json.JSONDecodeError as exc:
            raise InputError(f"{spec} is not valid JSON: {exc}")
        except (KeyError, TypeError) as exc:
            raise InputError(f"antimorphism config needs 'letters' and 'pairs': {exc}")
        if not (_is_str_list(letters) and isinstance(pairs, list)
                and all(_is_str_list(pr) for pr in pairs)):
            raise InputError("antimorphism config: 'letters' must be a list of "
                             "strings and 'pairs' a list of lists of strings")
    for pr in pairs:
        if len(pr) != 2:
            raise InputError(f"bad pair {'-'.join(pr)!r}; expected like a-b or c-c")
    return letters, pairs


def _parse_theta(spec: str, alphabet: Alphabet | None) -> Antimorphism:
    """--theta reversal | pairs:a-b,c-c | <config.json>.  With a word (its
    ``alphabet``), the named letters must be the word's, in any order; without
    one, their order sets the alphabet.  ``Antimorphism.from_pairs`` decides
    whether the pairs pair every letter with exactly one letter."""
    if spec == "reversal":
        if alphabet is None:
            raise InputError("reversal antimorphism needs a word to infer the alphabet")
        return Antimorphism.reversal(alphabet)
    letters, pairs = _theta_config(spec)
    named = Alphabet(tuple(letters))
    theta = Antimorphism.from_pairs(named if alphabet is None else alphabet, pairs)
    if set(letters) != set(theta.alphabet.letters):
        raise InputError(f"antimorphism letters {letters} are not the word's "
                         f"letters {list(theta.alphabet.letters)}")
    return theta


_DIRECTIVE_RE = re.compile(r"^([^()]*)\(([^()]+)\)$")


def _parse_directive(spec: str, alphabet: Alphabet) -> DirectiveSequence:
    """Directive syntax: "pre(period)", "(period)" or just "period"."""
    m = _DIRECTIVE_RE.match(spec)
    pre, period = (m.group(1), m.group(2)) if m else ("", spec)
    return DirectiveSequence.parse(alphabet, pre, period)


def _closure_input(args, needs: str) -> tuple[Antimorphism, Word, DirectiveSequence]:
    """--theta, --seed-word and --directive of a Theta-closure word;
    ``needs`` names the option that requires --directive."""
    theta = _parse_theta(args.theta, None)
    if not args.directive:
        raise InputError(f"{needs} needs --directive")
    d = _parse_directive(args.directive, theta.alphabet)
    return theta, Word.from_text(theta.alphabet, args.seed_word or ""), d


def _load_input(args) -> tuple[Word, Antimorphism, dict]:
    """Resolve --gen/--word-file plus --theta into (prefix, theta, descriptor)."""
    n = args.len
    if args.word_file:
        w = word_from_file(args.word_file, tokens=args.tokens).factor(0, n)
        if len(w) == 0:
            raise InputError(f"word file {args.word_file} holds no letters")
        theta = _parse_theta(args.theta, w.alphabet)
        return w, theta, {"word_file": args.word_file, "length": len(w)}
    if not args.gen:
        raise InputError("either --gen or --word-file is required")
    gen = args.gen
    src: WordSource
    if gen == "fibonacci":
        src = fibonacci_source()
    elif gen == "tribonacci":
        src = tribonacci_source()
    elif gen == "thue_morse":
        src = ThueMorseSource()
    elif gen.startswith("periodic:"):
        src = PeriodicSource(Word.parse(gen[len("periodic:"):]))
    elif gen == "episturmian":
        if not args.directive:
            raise InputError("--gen episturmian needs --directive")
        ab = Alphabet(tuple(sorted(set(args.directive) - set("()"))))
        src = episturmian_source(_parse_directive(args.directive, ab))
    elif gen == "theta_standard":
        src = ClosureSource(*_closure_input(args, "--gen theta_standard"))
        return src.prefix(n), src.theta, src.describe()
    else:
        raise InputError(f"unknown generator: {gen!r}")
    w = src.prefix(n)
    theta = _parse_theta(args.theta, w.alphabet)
    return w, theta, src.describe()


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _output(args, text: str) -> None:
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict) -> None:
    _output(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _header(args, descriptor: dict, theta: Antimorphism, **body) -> dict:
    # the keys shared by the analyze and decompose path/return reports
    return {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
            "seed": args.seed, "input": descriptor,
            "antimorphism": theta.describe(), **body}


def cmd_analyze(args) -> int:
    w, theta, descriptor = _load_input(args)
    safe = default_safe_length(len(w), args.safe_divisor)
    profile = defect_profile(theta, w)
    table = complexity_table(theta, w, min(safe + 1, len(w) - 1),
                             safe_length=safe, source=str(descriptor))
    closed, witness = closed_under_theta(theta, w, min(safe, len(w)))
    ineq = check_inequality2(table, closed)
    rauzy_checks = {}
    for n in range(1, min(safe, args.max_rauzy_n) + 1):
        g = build_graph(theta, w, n)
        res = check_proposition1(g, theta)
        rauzy_checks[str(n)] = {
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "loops_palindromic": res.loops_palindromic,
            "tree_after_loop_removal": res.tree_after_loop_removal,
            "T": table.t(n) if n <= table.max_length else None,
        }
    crw = crw_palindromicity_scan(theta, w)
    lps_scan = profile.last_increment
    report = _header(
        args, descriptor, theta,
        prefix_length=len(w),
        safe_length=safe,
        defect={
            "of_prefix": profile.values[-1],   # defect of the analyzed prefix,
                                               # not of the infinite word
            "last_increment_index": lps_scan,
            "gamma": profile.gammas[-1],
            "pal_count": profile.pal_counts[-1],
        },
        complexity=table.describe(),
        closure={"closed": closed,
                 "witness": witness.text if witness else None,
                 "checked_up_to": min(safe, len(w))},
        rich_by_T=is_rich_by_T(table, closed) if closed else None,
        inequality2=ineq,
        rauzy=rauzy_checks,
        returns={
            "crw_scan": crw.describe(),
            "unioccurrent_lps_last_violation": lps_scan,
        },
    )
    if args.profile_csv:
        _write_text(args.profile_csv, profile.to_csv())
    if args.table_csv:
        _write_text(args.table_csv, table.to_csv())
    _emit(args, report)
    return 0


def cmd_rauzy(args) -> int:
    w, theta, descriptor = _load_input(args)
    safe = default_safe_length(len(w), args.safe_divisor)
    if args.n > safe:
        raise InputError(
            f"n={args.n} exceeds safe length {safe} for a prefix of {len(w)} "
            "letters; increase --len")
    g = build_graph(theta, w, args.n)
    res = check_proposition1(g, theta)
    if args.dot:
        _write_text(args.dot, g.to_dot())
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input": descriptor,
        "antimorphism": theta.describe(),
        "n": args.n,
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "loops": sum(e.is_loop for e in g.edges),
        "loops_palindromic": res.loops_palindromic,
        "tree_after_loop_removal": res.tree_after_loop_removal,
    }
    _emit(args, report)
    return 0


def _eq4_samples(coding, theta, rng) -> dict:
    b = coding.phi.source
    words = [Word.unchecked(b, tuple(rng.randrange(len(b)) for _ in range(rng.randint(0, 6))))
             for _ in range(EQ4_SAMPLES)]
    failures = sum(not verify_eq4(theta, coding.phi, coding.p, w) for w in words)
    return {"samples": EQ4_SAMPLES, "failures": failures}


def cmd_decompose(args) -> int:
    try:
        if args.method == "theorem3":
            report = theorem3_pipeline(*_closure_input(args, "--method theorem3"),
                                       scale=args.len)
            report.update(schema_version=SCHEMA_VERSION,
                          tool_version=__version__, seed=args.seed)
        elif args.method == "path":
            w, theta, descriptor = _load_input(args)
            coding = theorem1_decompose(theta, w, args.n or 1)
            rich = richness_conditions_check(coding.theta2, coding.v_prefix,
                                             max_factor_len=args.max_factor_len)
            report = _header(args, descriptor, theta, method="path",
                             coding=coding.describe(),
                             richness_conditions=rich.describe(), ok=rich.both)
        else:
            w, theta, descriptor = _load_input(args)
            coding = theorem2_decompose(theta, w)
            eq4 = _eq4_samples(coding, theta, random.Random(args.seed))
            v_defect = defect(Antimorphism.reversal(coding.v_prefix.alphabet),
                              coding.v_prefix)
            report = _header(
                args, descriptor, theta, method="return",
                coding=coding.describe(), eq4=eq4, derived_defect=v_defect,
                ok=coding.eq3_ok and eq4["failures"] == 0 and v_defect == 0)
    except DecomposeError as exc:
        _emit(args, {"error": str(exc), "payload": exc.payload,
                     "schema_version": SCHEMA_VERSION})
        return 2
    _emit(args, report)
    return 0 if report["ok"] else 2


def cmd_generate(args) -> int:
    w, _theta, descriptor = _load_input(args)
    _output(args, w.text + "\n")
    return 0


def _add_common(sp) -> None:
    sp.add_argument("--gen", help="generator: fibonacci | tribonacci | thue_morse"
                                  " | periodic:<word> | episturmian | theta_standard")
    sp.add_argument("--word-file", help="read the word from a file instead")
    sp.add_argument("--tokens", action="store_true",
                    help="word file is whitespace-tokenized")
    sp.add_argument("--theta", default="reversal",
                    help="reversal | pairs:a-b,c-c | antimorphism config JSON")
    sp.add_argument("--directive", help='closure directive, e.g. "(ab)" or "a(bc)"')
    sp.add_argument("--seed-word", default="", help="seed for theta_standard")
    sp.add_argument("--len", type=int, default=2000, help="prefix length to analyze")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed for sampling")
    sp.add_argument("--out", help="write the JSON report here instead of stdout")


class _Parser(argparse.ArgumentParser):
    # a usage error is an input error (exit 1); exit 2 means "inconclusive"
    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="palrich",
        description="Analysis of words with respect to an involutive "
                    "antimorphism: palindromic defect, complexity gaps, Rauzy "
                    "graphs, return words and richness decompositions.",
        epilog="exit codes: 0 success, 1 input error, 2 inconclusive, "
               "3 internal invariant violated")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full analysis report")
    r = sub.add_parser("rauzy", help="super reduced Rauzy graph at one length")
    for sp in (a, r):
        _add_common(sp)
        sp.add_argument("--safe-divisor", type=int, default=DEFAULT_SAFE_DIVISOR,
                        help="safe_length = prefix_length / divisor")
    a.add_argument("--max-rauzy-n", type=int, default=12)
    a.add_argument("--profile-csv", help="write the defect profile CSV here")
    a.add_argument("--table-csv", help="write the complexity table CSV here")
    a.set_defaults(func=cmd_analyze)

    r.add_argument("--n", type=int, required=True)
    r.add_argument("--dot", help="write the DOT graph here")
    r.set_defaults(func=cmd_rauzy)

    d = sub.add_parser("decompose", help="recode as a morphic image of a rich word")
    _add_common(d)
    d.add_argument("--method", choices=["path", "return", "theorem3"],
                   required=True)
    d.add_argument("--n", type=int, help="coding length for --method path")
    d.add_argument("--max-factor-len", type=int, default=None, help="longest factor length "
                   "condition (i) scans; default half of v, at most 64")
    d.set_defaults(func=cmd_decompose)

    g = sub.add_parser("generate", help="dump a generated prefix")
    _add_common(g)
    g.set_defaults(func=cmd_generate)
    return ap


def _check_ranges(args) -> None:
    for flag, value in (("--len", args.len),
                        ("--safe-divisor", getattr(args, "safe_divisor", None)),
                        ("--n", getattr(args, "n", None)),
                        ("--max-factor-len", getattr(args, "max_factor_len", None)),
                        ("--max-rauzy-n", getattr(args, "max_rauzy_n", None))):
        if value is not None and value < 1:
            raise InputError(f"{flag} must be at least 1, got {value}")
    if args.len > MAX_LETTERS:
        raise InputError(f"--len must be at most {MAX_LETTERS}, got {args.len}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_ranges(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; try a smaller --len", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
