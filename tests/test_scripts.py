"""The scripts under ``scripts/``, loaded in-process with ``runpy``."""
import pathlib
import runpy
import sys

import pytest

import palrich.palindromes

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
THRESHOLD_SCAN = SCRIPTS / "threshold_scan.py"


def run_threshold_scan(monkeypatch, *args) -> int:
    monkeypatch.setattr(sys, "argv", ["threshold_scan.py", *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(THRESHOLD_SCAN), run_name="__main__")
    return exc.value.code


def test_threshold_scan_rows(capsys, monkeypatch):
    assert run_threshold_scan(monkeypatch, "--min-len", "100",
                              "--max-len", "200") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:2] for row in rows] == \
        [[name, n] for name in ("fibonacci", "thue_morse", "ts_exchange")
         for n in ("100", "200")]


@pytest.mark.parametrize("min_len", ["0", "-4"])
def test_threshold_scan_rejects_min_len_below_one(capsys, monkeypatch, min_len):
    # n *= 2 never leaves 0 or a negative n: the scan must not start
    def no_scan(*args):
        raise AssertionError("a prefix was scanned")
    monkeypatch.setattr(palrich.palindromes, "crw_violation_lengths", no_scan)
    assert run_threshold_scan(monkeypatch, "--min-len", min_len,
                              "--max-len", "2000") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_claims_sweep_slice():
    # the 48 Theta-standard inputs over 2 letters with seeds of 0-1 letters
    # and the 10 closed periodic words over 2 letters with periods of 1-3
    # letters; CI runs both families whole against the counts pinned in the
    # script's docstring
    counts = runpy.run_path(str(SCRIPTS / "claims_sweep.py"))["counts"]
    assert counts((2,), range(2), {2: 3}) == {
        "path": {"2 letters": {"ok": 24, "not ok": 24}},
        "return": {"2 letters": {"ok": 48}},
        "theorem3": {"2 letters": {"ok": 48}},
        "periodic": {"path": {"2 letters": {"ok": 10}},
                     "return": {"2 letters": {"ok": 10}}},
        "identity failures": 0}
