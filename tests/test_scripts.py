"""Smoke tests: the scripts in scripts/ run and print their known values."""

import importlib.util
import json
import os
import runpy
import signal
import sys

from quandlekit.specs import bundled_path

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(os.path.join(SCRIPTS, name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_knot_table_runs(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "knot_table.py")
    rows = {line.split()[0]: line.split(None, 4)[1:] for line in lines[2:] if line[:1].isalnum()}
    # trefoil: 3 crossings, 9 colorings by R3, 27 shadow colorings, 9 + 18t
    assert rows["trefoil"] == ["3", "9", "27", "9 + 18t"]
    assert rows["T(2,-3)"] == ["3", "9", "27", "9 + 18t^2"]


def test_make_knot_data_reproduces_the_bundled_files(monkeypatch, tmp_path):
    path = os.path.join(SCRIPTS, "make_knot_data.py")
    spec = importlib.util.spec_from_file_location("make_knot_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "DATA_DIR", str(tmp_path))
    module.main()
    written = sorted(os.listdir(tmp_path))
    assert "trefoil.pd" in written and "trefoil_shadow.surf" in written
    for name in written:
        with open(tmp_path / name, "rb") as got, open(bundled_path(name), "rb") as want:
            assert got.read() == want.read(), name


def test_homology_survey_runs(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "homology_survey.py", "3")
    at = lines.index("== R3 (orbits: 1)")
    assert lines[at + 3].split() == ["H_3^R", "=", "Z", "+", "Z_3", "H_3^D", "=", "Z",
                                     "H_3^Q", "=", "Z_3"]
    assert lines[at + 4].strip() == "splitting checks: all pass"


def test_sweep_runs_each_tree(monkeypatch, capsys):
    root = os.path.dirname(SCRIPTS)
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "531441")
    lines = run_script(monkeypatch, capsys, "sweep.py", "--tree", f"a={root}",
                       "--tree", f"b={root}", "--runs", "2", "--", "check dihedral:3")
    result = json.loads("\n".join(lines))
    assert result["trees"] == ["a", "b"]
    # The budget every run inherited is named in the output and its method.
    assert result["budget"] == "531441"
    assert "QUANDLEKIT_BUDGET=531441" in result["method"]
    [row] = result["rows"]
    assert row["command"] == "quandlekit check dihedral:3"
    assert row["a"]["exit"] == row["b"]["exit"] == 0
    assert row["a"]["stdout_sha256"] == row["b"]["stdout_sha256"]
    for name in "ab":
        got = row[name]
        assert got["cpu_s"] > 0 and got["peak_rss_mb"] > 0
        # Each run's CPU seconds and peak RSS, the least and the median CPU.
        assert len(got["cpu_s_runs"]) == 2 and got["cpu_s_min"] == min(got["cpu_s_runs"])
        assert len(got["peak_rss_mb_runs"]) == 2 and all(got["peak_rss_mb_runs"])
        assert got["cpu_s_min"] <= got["cpu_s"] <= max(got["cpu_s_runs"])


def test_sweep_caps_each_run_and_records_the_trip(monkeypatch, capsys):
    """A run past a cap ends at once, with its exit code or signal recorded."""
    root = os.path.dirname(SCRIPTS)
    monkeypatch.delenv("QUANDLEKIT_BUDGET", raising=False)
    lines = run_script(monkeypatch, capsys, "sweep.py", "--tree", f"a={root}", "--runs", "1",
                       "--max-mb", "200", "--max-cpu-s", "1", "--",
                       "check dihedral:30000",
                       "color 'braid:7: 1 -1 2 -2 3 -3 4 -4 5 -5 6 -6' trivial:10 --list")
    result = json.loads("\n".join(lines))
    assert (result["max_mb"], result["max_cpu_s"]) == (200, 1)
    assert "address space capped at 200 MB" in result["method"]
    assert "CPU capped at 1 s" in result["method"]
    table, listing = (row["a"] for row in result["rows"])
    # The 9 * 10^8-entry table meets the address-space cap: MemoryError, exit 1.
    assert table["exit"] == 1 and "signal" not in table
    # The 10^7-row listing meets the CPU cap.
    assert listing["exit"] == -signal.SIGXCPU and listing["signal"] == "SIGXCPU"
    assert listing["cpu_s"] < 3
