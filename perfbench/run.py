#!/usr/bin/env python3
"""Benchmark of the palrich CLI on four fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, tables
    python3 perfbench/run.py --record-golden         # re-record golden.json

Closed loop, one client: each command runs in its own fresh child process
(``child.py``), one at a time, because a CLI user pays interpreter start,
imports and every cache on each run.  The seed sets the ``--seed`` passed to
every command and the order of the commands within each pass.  A run repeats
whole passes while the next one is expected to end within ``--seconds`` (at
least one pass) and reports the median over passes of each metric.

Every command's exit code and normalized stdout are compared with
``golden.json``; a mismatch, a crash or a command over its time budget counts
as failed.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run makes one
untraced and one traced pass and reports the per-layer metrics.  See
README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"

# Timings are reported in reference seconds: seconds on a machine that runs
# child.calibration_unit in this time.  On a shared 2-vCPU 2 GHz Xeon VM it
# takes about 0.7 ms, but identical pure-Python loops there vary by up to
# 1.5x within a minute as neighbours load the host.  Scaling each command by
# the speed sampled while it runs cuts the run-to-run spread about threefold.
REFERENCE_UNIT_S = 0.0007

PREFIX = "4000"
LONG = str(2 ** 18)

# Generator arguments of the frozen corpus, as in scripts/corpus_report.py.
CORPUS = {
    "fibonacci": ["--gen", "fibonacci"],
    "tribonacci": ["--gen", "tribonacci"],
    "thue_morse": ["--gen", "thue_morse"],
    "ts_exchange": ["--gen", "theta_standard", "--theta", "pairs:a-b",
                    "--directive", "(ab)"],
    "ts_mixed3": ["--gen", "theta_standard", "--theta", "pairs:a-b,c-c",
                  "--directive", "(abc)"],
    "ts_seeded_rev": ["--gen", "theta_standard", "--theta", "pairs:a-a,b-b",
                      "--seed-word", "ab", "--directive", "(ab)"],
}
THEOREM3 = {
    "ts_exchange": ["--theta", "pairs:a-b", "--directive", "(ab)"],
    "ts_mixed3": ["--theta", "pairs:a-b,c-c", "--directive", "(abc)"],
    "ts_seeded_rev": ["--theta", "pairs:a-a,b-b", "--seed-word", "ab",
                      "--directive", "(ab)"],
}


@dataclass(frozen=True)
class Command:
    id: str             # key into golden.json
    argv: tuple         # palrich argv without --seed
    letters: int        # prefix letters the command analyzes or writes

    @property
    def metric(self) -> str:
        """End-to-end metric that sums this command's in-child time."""
        if self.argv[0] == "decompose":
            return f"decompose_{self.argv[self.argv.index('--method') + 1]}_s"
        return f"{self.argv[0]}_s"


def _cmd(cid: str, *argv: str) -> Command:
    return Command(cid, tuple(argv), int(argv[argv.index("--len") + 1]))


WORKLOADS = {
    # Headline command; the complete-return scan dominates, thue_morse emits
    # a 2.2 MB report.
    "analyze-corpus": [
        _cmd(f"analyze/{w}", "analyze", *CORPUS[w], "--len", PREFIX)
        for w in CORPUS],
    # safe_length 250: the per-length factor-set layers dominate.
    "analyze-deep": [
        _cmd(f"analyze-deep/{w}", "analyze", *CORPUS[w], "--len", PREFIX,
             "--safe-divisor", "16", "--max-rauzy-n", "64")
        for w in ("thue_morse", "ts_mixed3")],
    # decompose layer, occurrences and Word construction; the ts_exchange
    # path coding exits 2 (inconclusive).
    "decompose-mix": [
        *(_cmd(f"path/{w}", "decompose", *CORPUS[w], "--len", PREFIX,
               "--method", "path", "--n", "1")
          for w in ("fibonacci", "ts_exchange")),
        *(_cmd(f"return/{w}", "decompose", *CORPUS[w], "--len", PREFIX,
               "--method", "return")
          for w in ("fibonacci", "tribonacci", "ts_seeded_rev")),
        *(_cmd(f"theorem3/{w}", "decompose", "--method", "theorem3",
               *THEOREM3[w], "--len", PREFIX)
          for w in THEOREM3),
    ],
    # Linear regime on a 64x larger working set: generators and PalIndex as
    # writers, rauzy at small n; no complexity table, no return scan.
    "generate-long": [
        *(_cmd(f"generate/{w}", "generate", *CORPUS[w], "--len", LONG)
          for w in ("fibonacci", "ts_mixed3", "thue_morse")),
        _cmd("rauzy/tribonacci", "rauzy", *CORPUS["tribonacci"], "--len", LONG,
             "--n", "16"),
        _cmd("rauzy/ts_mixed3", "rauzy", *CORPUS["ts_mixed3"], "--len", LONG,
             "--n", "8"),
    ],
}

COMMAND_METRICS = ("analyze_s", "rauzy_s", "generate_s", "decompose_path_s",
                   "decompose_return_s", "decompose_theorem3_s")

# name -> unit; the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "command_s": "s",
    "letters_per_s": "letters/s",
    "peak_rss_mb": "MB",
}

# Spans timed by child.py, reported as self time "<span>_s".
LAYER_TIMES = (
    "generators.prefix", "generators.arnoux_rauzy_check",
    "palindromes.defect_profile", "palindromes.defect",
    "complexity.complexity_table", "complexity.closed_under_theta",
    "rauzy.special_factors", "rauzy.build_graph", "rauzy.check_proposition1",
    "returns.crw_palindromicity_scan", "returns.unioccurrent_lps_scan",
    "returns.mirror_bounded_palindromicity",
    "core.occurrences",
    "decompose.theorem1_decompose", "decompose.theorem2_decompose",
    "decompose.theorem3_pipeline", "decompose.richness_conditions_check",
)
# Spans whose number of calls is reported as "<span>_calls".
LAYER_CALLS = ("complexity.closed_under_theta", "rauzy.special_factors",
               "rauzy.build_graph", "core.occurrences")
# Counters kept by child.py.
LAYER_COUNTS = ("generators.letters", "palindromes.palindex_builds",
                "returns.return_structure_calls", "core.word_constructions")
# Structure sizes read from the reports; they repeat exactly.
REPORT_COUNTS = ("palindromes.nodes", "complexity.rows", "rauzy.vertices",
                 "returns.crw_checked_factors", "decompose.return_words")


def per_layer_units() -> dict:
    units = {"cli.self_s": "s", "cli.report_bytes": "bytes"}
    units.update({f"{s}_s": "s" for s in LAYER_TIMES})
    units.update({f"{s}_calls": "count" for s in LAYER_CALLS})
    units.update({c: "count" for c in LAYER_COUNTS + REPORT_COUNTS})
    units["returns.crw_checked_ratio"] = "ratio"
    units.update({f"cmd.{m}": "s" for m in COMMAND_METRICS})
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


# --- command plan -------------------------------------------------------------

def pass_order(workload: str, rng: random.Random) -> list:
    """The commands of one pass, in the order the seeded rng picks."""
    cmds = list(WORKLOADS[workload])
    rng.shuffle(cmds)
    return cmds


def child_argv(cmd: Command, seed: int) -> list:
    return [*cmd.argv, "--seed", str(seed)]


# --- one command --------------------------------------------------------------

def normalize(stdout: bytes) -> bytes:
    """Stdout with the top-level ``seed`` and ``tool_version`` keys dropped."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(payload, dict):
        payload.pop("seed", None)
        payload.pop("tool_version", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def digest(stdout: bytes) -> str:
    return hashlib.sha256(normalize(stdout)).hexdigest()


@dataclass
class Result:
    cmd: Command
    ok: bool
    reason: str             # why it failed; "" when ok
    code: Optional[int]
    stdout: bytes
    # Measured seconds, minus the speed samples taken inside each interval.
    setup_s: float          # spawn -> subcommand entered
    command_s: float        # in-child time inside the subcommand
    rss_mb: float
    samples: list = field(default_factory=list)   # sample durations, s
    spans: list = field(default_factory=list)
    span_samples: dict = field(default_factory=dict)  # span -> sampled s
    counts: dict = field(default_factory=dict)

    @property
    def scale(self) -> float:
        return speed_scale(self.samples)


def speed_scale(samples: list) -> float:
    """Factor from measured seconds to reference seconds: the reference
    machine runs one calibration unit in ``REFERENCE_UNIT_S``."""
    return REFERENCE_UNIT_S / statistics.fmean(samples) if samples else 1.0


def budget_s(golden: Optional[dict]) -> float:
    """Time a command may take before it is killed and counted as failed."""
    if golden is None:         # recording: no reference time yet
        return 600.0
    return max(5.0, 4.0 * golden["recorded_s"])


def run_command(cmd: Command, seed: int, trace: bool,
                golden: Optional[dict]) -> Result:
    """Run one command in a fresh child and check it against its golden entry.

    ``golden`` None records instead of checking.  Never raises for a failing
    child: a crash, a time-out or a wrong output is returned as ``ok=False``.
    """
    budget = budget_s(golden)
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"record-{os.getpid()}.json"
    record_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(CHILD), str(record_path), "1" if trace else "0",
            "--", *child_argv(cmd, seed)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    timed_out = False
    try:
        stdout, stderr = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        timed_out = True
    reaped = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record_path.unlink()
    except (OSError, ValueError):
        record = {}
    code, enter, leave = record.get("code"), record.get("enter"), record.get("exit")
    reason = ""
    if timed_out:
        reason = f"over its {budget:.1f} s budget"
    elif code is None or enter is None or code != proc.returncode:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        reason = f"crashed (exit {proc.returncode}): {' '.join(tail)}"
    elif golden is not None:
        if code != golden["exit"]:
            reason = f"exit {code}, golden {golden['exit']}"
        elif digest(stdout) != golden["sha256"]:
            reason = "stdout differs from golden"
    if enter is None:
        enter = leave = reaped
    leave = leave or reaped
    samples = record.get("samples", [])
    span_samples = Counter()
    for s, e, span in samples:
        if span >= 0:
            span_samples[span] += e - s

    def sampled(lo, hi):
        return sum(e - s for s, e, _span in samples if lo <= s and e <= hi)

    return Result(
        cmd=cmd, ok=not reason, reason=reason, code=code, stdout=stdout,
        setup_s=enter - spawned - sampled(spawned, enter),
        command_s=leave - enter - sampled(enter, leave),
        rss_mb=record.get("maxrss_kb", 0) / 1024,
        samples=[e - s for s, e, _span in samples],
        spans=record.get("spans", []), span_samples=span_samples,
        counts=record.get("counts", {}))


def warm_up() -> None:
    """Compile palrich's bytecode and fill the page cache, untimed.  A failed
    import shows up as failed commands, not here."""
    subprocess.run([sys.executable, "-c", "import palrich.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


# --- passes and metrics ---------------------------------------------------------

@dataclass
class Pass:
    results: list
    wall_s: float           # measured, speed samples included

    def metrics(self) -> dict:
        """End-to-end metrics of the pass, in reference seconds."""
        rs = self.results
        command_s = sum(r.command_s * r.scale for r in rs)
        samples = [d for r in rs for d in r.samples]
        wall_s = (self.wall_s - sum(samples)) * speed_scale(samples)
        return {
            "setup_s": sum(r.setup_s * r.scale for r in rs),
            "wall_s": wall_s,
            "command_s": command_s,
            "letters_per_s": (sum(r.cmd.letters for r in rs) / command_s
                              if command_s else 0.0),
            "peak_rss_mb": max(r.rss_mb for r in rs),
        }

    def command_times(self) -> dict:
        """In-child time per subcommand metric, in reference seconds."""
        times = {m: 0.0 for m in COMMAND_METRICS}
        for r in self.results:
            times[r.cmd.metric] += r.command_s * r.scale
        return times


def run_pass(workload: str, rng: random.Random, seed: int, trace: bool,
             golden: dict, log=None) -> Pass:
    start = time.monotonic()
    results = []
    for cmd in pass_order(workload, rng):
        r = run_command(cmd, seed, trace, golden[cmd.id])
        if not r.ok and log is not None:
            print(f"FAILED {cmd.id}: {r.reason}", file=log)
        results.append(r)
    return Pass(results, time.monotonic() - start)


def self_times(spans: list) -> list:
    """Self time of each span ``[name, start, end, parent]``: its duration
    minus the time covered by its direct children (which never overlap)."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_name, start, end, _parent) in enumerate(spans)]


def report_counts(results: list) -> Counter:
    """Exact structure counts read from the JSON reports of a pass."""
    counts = Counter()
    for r in results:
        try:
            rep = json.loads(r.stdout)
        except ValueError:
            continue            # generate prints a word, not a report
        kind = r.cmd.argv[0]
        if kind == "analyze":
            counts["palindromes.nodes"] += rep["defect"]["pal_count"] - 1
            counts["complexity.rows"] += len(rep["complexity"]["C"])
            counts["rauzy.vertices"] += sum(
                g["vertices"] for g in rep["rauzy"].values())
            counts["returns.crw_checked_factors"] += (
                rep["returns"]["crw_scan"]["checked_factors"])
        elif kind == "rauzy":
            counts["rauzy.vertices"] += rep["vertices"]
        elif kind == "decompose" and "M" in rep.get("coding", {}):
            counts["decompose.return_words"] += rep["coding"]["M"]
    return counts


def layer_metrics(traced: Pass, untraced: Pass) -> dict:
    values = {m: 0 if unit in ("count", "bytes") else 0.0
              for m, unit in PER_LAYER.items()}
    for r in traced.results:
        for i, own in enumerate(self_times(r.spans)):
            name = r.spans[i][0]
            own = (own - r.span_samples.get(i, 0.0)) * r.scale
            if name.startswith("cli."):
                values["cli.self_s"] += own
            elif f"{name}_s" in values:
                values[f"{name}_s"] += own
            if f"{name}_calls" in values:
                values[f"{name}_calls"] += 1
        for name, n in r.counts.items():
            values[name] += n
    values.update(report_counts(traced.results))
    nodes = values["palindromes.nodes"]
    values["returns.crw_checked_ratio"] = (
        values["returns.crw_checked_factors"] / nodes if nodes else 0.0)
    values["cli.report_bytes"] = sum(len(r.stdout) for r in traced.results)
    values.update({f"cmd.{m}": t for m, t in untraced.command_times().items()})
    values["trace.overhead_s"] = (traced.metrics()["wall_s"]
                                  - untraced.metrics()["wall_s"])
    return values


def write_trace(workload: str, seed: int, traced: Pass) -> Path:
    """All spans of the traced pass, tagged with their command id."""
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    spans = [[r.cmd.id, *span] for r in traced.results for span in r.spans]
    path.write_text(json.dumps({"columns": ["command", "name", "start", "end",
                                            "parent"], "spans": spans}))
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool,
            golden: dict, log=sys.stderr) -> dict:
    rng = random.Random(seed)
    warm_up()
    start = time.monotonic()
    if trace:
        untraced = run_pass(workload, rng, seed, False, golden, log)
        traced = run_pass(workload, rng, seed, True, golden, log)
        passes = [untraced, traced]
        path = write_trace(workload, seed, traced)
        print(f"spans written to {path.relative_to(ROOT)}", file=log)
        values = layer_metrics(traced, untraced)
        units = PER_LAYER
    else:
        passes = []
        while True:
            passes.append(run_pass(workload, rng, seed, False, golden, log))
            if time.monotonic() - start + passes[-1].wall_s > seconds:
                break
        per_pass = [p.metrics() for p in passes]
        values = {m: statistics.median(p[m] for p in per_pass)
                  for m in END_TO_END}
        units = END_TO_END
        print_table(workload, seed, passes, values)
    results = [r for p in passes for r in p.results]
    failed = sum(not r.ok for r in results)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def print_table(workload: str, seed: int, passes: list, values: dict) -> None:
    results = [r for p in passes for r in p.results]
    failed = sum(not r.ok for r in results)
    print(f"workload {workload}, seed {seed}, {len(passes)} pass(es), "
          "medians over passes")
    for m, unit in END_TO_END.items():
        print(f"  {m:22s} {values[m]:14.4f} {unit}")
    ran = {r.cmd.metric for r in results}
    for m in COMMAND_METRICS:
        if m in ran:
            v = statistics.median(p.command_times()[m] for p in passes)
            print(f"  {m:22s} {v:14.4f} s")
    raw = statistics.median(sum(r.command_s for r in p.results) for p in passes)
    print(f"  {'(measured command_s)':22s} {raw:14.4f} s, not scaled to the "
          "reference speed")
    print(f"  {'failed_ratio':22s} {failed / len(results):14.4f} "
          f"({failed} of {len(results)} commands)")


# --- golden outputs --------------------------------------------------------------

def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def record_golden() -> int:
    """Run every command once at seed 0 and write golden.json."""
    warm_up()
    golden = {}
    for workload, cmds in WORKLOADS.items():
        for cmd in cmds:
            r = run_command(cmd, 0, False, None)
            if r.code is None:
                print(f"{cmd.id}: {r.reason}", file=sys.stderr)
                return 1
            golden[cmd.id] = {"argv": list(cmd.argv), "exit": r.code,
                              "sha256": digest(r.stdout),
                              "stdout_bytes": len(r.stdout),
                              "recorded_s": round(r.command_s, 2)}
            print(f"{workload:15s} {cmd.id:24s} exit {r.code} "
                  f"{r.command_s:7.2f} s {len(r.stdout)} bytes")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=33)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="run every command once and rewrite golden.json")
    args = ap.parse_args(argv)
    if not (SRC / "palrich" / "cli.py").is_file():
        print(f"error: no palrich sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # One CPU for the harness and every child, so that the speed samples are
    # taken on the CPU that runs the command: the two CPUs of a shared host
    # can run at different speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        ap.error("--workload is required")
    golden = load_golden()
    if args.workload == "all":
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace),
                              golden) for w in WORKLOADS}
        print(json.dumps(results, sort_keys=True))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     golden)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
