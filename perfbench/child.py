"""Run one palrich CLI command inside a benchmark child process.

Usage: python3 child.py RECORD_PATH TRACE -- ARGV...

The parent puts the checkout's ``src`` directory on ``PYTHONPATH``.  This
script imports ``palrich.cli``, wraps the subcommand functions to time them,
and calls ``palrich.cli.main(ARGV)``: the library receives only argv.  The
CLI's stdout and stderr pass through untouched.  At exit it writes a JSON
record to RECORD_PATH: the exit code, the monotonic clock when the subcommand
was entered and left, and the peak RSS.

It also samples the machine's speed: it times a fixed unit of pure-Python
work three times at start, then every ``SAMPLE_INTERVAL_S`` from a sampler
thread while the command runs, and three times at exit.  The record lists
each sample as ``[start, end, span]``, span being the innermost open span
(-1 for none); the parent subtracts the samples from the timed intervals and
scales the times to a reference speed.  (A thread, not a SIGALRM timer:
signals interrupting the CLI's writes to the stdout pipe lose output.)

With TRACE = 1 it also wraps the public functions of every palrich module in
spans (name, start, end, parent span) and counts constructions of ``Word``
and ``PalIndex`` and calls of ``return_structure``.  Spans are kept in memory
and written into the record at exit.
"""
import functools
import json
import resource
import sys
import threading
import time
from collections import Counter

CLI_COMMANDS = ("cmd_analyze", "cmd_rauzy", "cmd_decompose", "cmd_generate")

# (module, attribute) of each function traced as a span; the span name is
# "<layer>.<function>", the layer being the module's last component.
SPAN_FUNCTIONS = (
    *(("palrich.cli", attr) for attr in CLI_COMMANDS),
    ("palrich.generators", "arnoux_rauzy_check"),
    ("palrich.palindromes", "defect_profile"),
    ("palrich.palindromes", "defect"),
    ("palrich.complexity", "complexity_table"),
    ("palrich.complexity", "closed_under_theta"),
    ("palrich.rauzy", "special_factors"),
    ("palrich.rauzy", "build_graph"),
    ("palrich.rauzy", "check_proposition1"),
    ("palrich.returns", "crw_palindromicity_scan"),
    ("palrich.returns", "unioccurrent_lps_scan"),
    ("palrich.returns", "mirror_bounded_palindromicity"),
    ("palrich.core", "occurrences"),
    ("palrich.decompose", "theorem1_decompose"),
    ("palrich.decompose", "theorem2_decompose"),
    ("palrich.decompose", "theorem3_pipeline"),
    ("palrich.decompose", "richness_conditions_check"),
)

# (module, class, method, counter name): calls counted, not timed.
COUNTED_METHODS = (
    ("palrich.core", "Word", "__post_init__", "core.word_constructions"),
    ("palrich.palindromes", "PalIndex", "__init__", "palindromes.palindex_builds"),
)
COUNTED_FUNCTIONS = (
    ("palrich.returns", "return_structure", "returns.return_structure_calls"),
)

# Every WordSource.prefix implementation is one "generators.prefix" span.
PREFIX_CLASSES = ("PeriodicSource", "ThueMorseSource", "ClosureSource")


SAMPLE_INTERVAL_S = 0.05


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract its
    # own spawn time from the values recorded here.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_unit() -> int:
    """Fixed pure-Python work of the kind palrich does: tuple slices used as
    dict keys.  Its duration measures how fast the machine runs right now."""
    sym = tuple(i * 7 % 3 for i in range(256))
    seen: dict = {}
    for n in range(1, 9):
        for i in range(len(sym) - n):
            f = sym[i:i + n]
            seen[f] = seen.get(f, 0) + 1
    return len(seen)


class SpeedSampler:
    """Times ``calibration_unit`` at start, periodically, and at stop."""

    def __init__(self):
        self.samples: list[list] = []
        self.tracer: "Tracer | None" = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        # The sampler holds the GIL, so the main thread is paused inside the
        # innermost open span until the sample ends.
        span = self.tracer.current() if self.tracer else -1
        start = _now()
        calibration_unit()
        self.samples.append([start, _now(), span])

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.sample()

    def start(self) -> None:
        for _ in range(3):
            self.sample()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        for _ in range(3):
            self.sample()


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus call counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def current(self) -> int:
        return self._stack[-1]

    def span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` in every palrich module that binds it."""
    for name, mod in list(sys.modules.items()):
        if name != "palrich" and not name.startswith("palrich."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install_tracer(tracer: Tracer) -> None:
    for modname, attr in SPAN_FUNCTIONS:
        fn = getattr(sys.modules[modname], attr)
        layer = modname.rsplit(".", 1)[1]
        _rebind(fn, tracer.span(f"{layer}.{attr}", fn))
    for modname, attr, counter in COUNTED_FUNCTIONS:
        fn = getattr(sys.modules[modname], attr)
        _rebind(fn, tracer.counter(counter, fn))
    for modname, cls_name, attr, counter in COUNTED_METHODS:
        cls = getattr(sys.modules[modname], cls_name)
        setattr(cls, attr, tracer.counter(counter, vars(cls)[attr]))

    def count_letters(word):
        tracer.counts["generators.letters"] += len(word)

    generators = sys.modules["palrich.generators"]
    for cls_name in PREFIX_CLASSES:
        cls = getattr(generators, cls_name)
        cls.prefix = tracer.span("generators.prefix", vars(cls)["prefix"],
                                 count_letters)


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RECORD_PATH TRACE -- ARGV...")
    argv = sys.argv[4:]
    record = {"code": None, "enter": None, "exit": None}
    tracer = None
    sampler = SpeedSampler()
    sampler.start()
    try:
        import palrich.cli as cli

        def timed(fn):
            @functools.wraps(fn)
            def wrapper(args):
                record["enter"] = _now()
                try:
                    return fn(args)
                finally:
                    record["exit"] = _now()
            return wrapper

        if trace:
            tracer = sampler.tracer = Tracer()
            install_tracer(tracer)
        # build_parser() reads these globals when main() calls it.
        for attr in CLI_COMMANDS:
            setattr(cli, attr, timed(getattr(cli, attr)))
        main_fn = tracer.span("cli.main", cli.main) if tracer else cli.main
        try:
            code = main_fn(argv)
        except SystemExit as exc:       # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        record["code"] = code
        sys.stdout.flush()
        return code
    finally:
        sampler.stop()
        record["samples"] = sampler.samples
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
