"""Self-tests of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import random
import sys
import textwrap
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# Stands in for child.py: follows its record protocol, prints a fixed
# report, raises on "boom" and sleeps on "hang".
FAKE_CHILD = textwrap.dedent("""
    import json, sys, time
    record_path, argv = sys.argv[1], sys.argv[4:]
    now = lambda: time.clock_gettime(time.CLOCK_MONOTONIC)
    record = {"enter": now(), "samples": [[now(), now() + 0.0007, -1]]}
    if "boom" in argv:
        raise RuntimeError("boom")
    if "hang" in argv:
        time.sleep(60)
    print(json.dumps({"value": 42, "seed": int(argv[-1]), "tool_version": "x"}))
    record.update(code=0, exit=now(), maxrss_kb=2048)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
""")
FAKE_STDOUT = b'{"value": 42}'


@pytest.fixture
def fake_child(tmp_path, monkeypatch):
    path = tmp_path / "fake_child.py"
    path.write_text(FAKE_CHILD)
    monkeypatch.setattr(run, "CHILD", path)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    return path


def golden_for(stdout=FAKE_STDOUT, exit_code=0):
    return {"exit": exit_code, "sha256": run.digest(stdout), "recorded_s": 0.01}


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1], ["b", 5.0, 9.0, 0]]
    assert run.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(run.self_times(spans)) == 10.0


def test_layer_metrics_sum_self_time_per_span_name():
    cmd = run.Command("x", ("analyze", "--len", "10"), 10)
    spans = [["cli.main", 0.0, 10.0, -1],
             ["complexity.closed_under_theta", 1.0, 4.0, 0],
             ["core.occurrences", 2.0, 3.0, 1],
             ["complexity.closed_under_theta", 5.0, 6.0, 0]]
    # Speed samples at twice the reference time, so every time halves; the
    # traced child took 0.5 s of them inside the outer closure span.
    samples = [2 * run.REFERENCE_UNIT_S] * 4
    traced = run.Pass([run.Result(cmd, True, "", 0, b"word", 0.1, 10.0, 1.0,
                                  samples=samples, spans=spans,
                                  span_samples={1: 0.5},
                                  counts={"core.word_constructions": 7})],
                      wall_s=11.5)
    untraced = run.Pass([run.Result(cmd, True, "", 0, b"word", 0.1, 9.0, 1.0,
                                    samples=samples)], wall_s=9.5)
    m = run.layer_metrics(traced, untraced)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["complexity.closed_under_theta_s"] == pytest.approx(1.25)
    assert m["complexity.closed_under_theta_calls"] == 2
    assert m["core.occurrences_s"] == pytest.approx(0.5)
    assert m["core.word_constructions"] == 7
    assert m["cmd.analyze_s"] == pytest.approx(4.5)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert set(m) == set(run.PER_LAYER)


def test_report_counts_read_exact_structure_sizes():
    analyze = run.Command("a", ("analyze", "--len", "9"), 9)
    report = {"defect": {"pal_count": 11}, "complexity": {"C": [1, 2, 3]},
              "rauzy": {"1": {"vertices": 2}, "2": {"vertices": 3}},
              "returns": {"crw_scan": {"checked_factors": 4}}}
    ret = run.Command("r", ("decompose", "--method", "return", "--len", "9"), 9)
    result = lambda cmd, payload: run.Result(
        cmd, True, "", 0, json.dumps(payload).encode(), 0, 0, 0)
    counts = run.report_counts([result(analyze, report),
                                result(ret, {"coding": {"M": 2}})])
    assert counts == {"palindromes.nodes": 10, "complexity.rows": 3,
                      "rauzy.vertices": 5, "returns.crw_checked_factors": 4,
                      "decompose.return_words": 2}


def test_normalize_drops_only_top_level_seed_and_version():
    a = json.dumps({"seed": 1, "tool_version": "0.1", "input": {"seed": "ab"}})
    b = json.dumps({"input": {"seed": "ab"}, "seed": 2})
    assert run.digest(a.encode()) == run.digest(b.encode())
    c = json.dumps({"input": {"seed": "ba"}})
    assert run.digest(a.encode()) != run.digest(c.encode())
    assert run.normalize(b"abba\n") == b"abba\n"


def test_times_scale_to_the_reference_speed():
    cmd = run.Command("x", ("generate", "--len", "10"), 10)
    slow = [2 * run.REFERENCE_UNIT_S] * 3
    r = run.Result(cmd, True, "", 0, b"", 0.5, 4.0, 1.0, samples=slow)
    p = run.Pass([r], wall_s=5.0 + sum(slow))
    m = p.metrics()
    assert m["setup_s"] == pytest.approx(0.25)
    assert m["command_s"] == pytest.approx(2.0)
    assert m["wall_s"] == pytest.approx(2.5)
    assert m["letters_per_s"] == pytest.approx(5.0)
    assert run.speed_scale([]) == 1.0


def test_correct_output_passes(fake_child):
    cmd = run.Command("ok", ("generate", "--len", "5"), 5)
    r = run.run_command(cmd, 3, False, golden_for())
    assert r.ok, r.reason
    assert r.setup_s > 0 and r.command_s >= 0 and r.rss_mb == 2.0


def test_corrupted_output_counts_as_failure(fake_child):
    cmd = run.Command("ok", ("generate", "--len", "5"), 5)
    r = run.run_command(cmd, 3, False, golden_for(b'{"value": 43}'))
    assert not r.ok and "differs" in r.reason
    r = run.run_command(cmd, 3, False, golden_for(exit_code=2))
    assert not r.ok and "exit 0" in r.reason


def test_raising_command_counts_as_failure(fake_child):
    cmd = run.Command("boom", ("generate", "boom", "--len", "5"), 5)
    r = run.run_command(cmd, 3, False, golden_for())
    assert not r.ok and r.reason.startswith("crashed")
    assert "RuntimeError: boom" in r.reason


def test_command_over_budget_is_killed(fake_child):
    cmd = run.Command("hang", ("generate", "hang", "--len", "5"), 5)
    start = time.monotonic()
    r = run.run_command(cmd, 3, False, golden_for())
    assert time.monotonic() - start < 30
    assert not r.ok and "budget" in r.reason


def test_failures_do_not_stop_a_run(fake_child, monkeypatch):
    cmds = [run.Command("ok", ("generate", "--len", "5"), 5),
            run.Command("boom", ("generate", "boom", "--len", "5"), 5)]
    monkeypatch.setitem(run.WORKLOADS, "tiny", cmds)
    golden = {"ok": golden_for(), "boom": golden_for()}
    result = run.measure("tiny", 1, 0, False, golden, log=None)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["correct"] is False
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_fixed_seed_gives_identical_command_list():
    def plan(workload, seed, passes=3):
        rng = random.Random(seed)
        return [[run.child_argv(c, seed) for c in run.pass_order(workload, rng)]
                for _ in range(passes)]

    for workload in run.WORKLOADS:
        first = plan(workload, 7)
        assert first == plan(workload, 7)
        assert all(argv[-2:] == ["--seed", "7"] for p in first for argv in p)
    assert plan("decompose-mix", 7) != plan("decompose-mix", 8)


def test_golden_covers_every_command():
    golden = run.load_golden()
    for cmds in run.WORKLOADS.values():
        for cmd in cmds:
            assert golden[cmd.id]["argv"] == list(cmd.argv)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
