"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``
from the root of a checkout."""

import json
import os
import shutil
import subprocess
import sys

import jobs
import run

ROOT = os.path.dirname(run.HERE)


def test_corrupted_reference_fails_the_job(tmp_path):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["digests"]["coloring/A27_7_4_list"] = "0" * 64
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    res = run.run_round(ROOT, "coloring", seed=1, reference=str(bad))
    attempted, failed, msgs = run.round_failures(res)
    assert (attempted, failed) == (len(jobs.JOB_IDS["coloring"]), 1)
    assert msgs[0].startswith("A27_7_4_list: output sha256")
    res = run.run_round(ROOT, "coloring", seed=1)
    assert run.round_failures(res)[1] == 0
    assert res["speed"] > 0 and res["cpu_s"] > 0


def test_wrong_published_value_fails_the_check():
    out = jobs.Out(0, "9 + 18t^2\n#data invariant 3 9 0 18\n")
    assert jobs.expect([jobs.psi(1)])(out, {}) is not None
    assert jobs.expect([jobs.psi(2)])(out, {}) is None
    assert jobs.expect([jobs.psi(2)], code=3)(out, {}) == "exit 0, expected 3"


def test_resource_guard_counts_failed_jobs_instead_of_hanging():
    res = run.run_round(ROOT, "homology", seed=1, timeout=1)
    attempted, failed, msgs = run.round_failures(res)
    assert failed == attempted >= 1
    assert "wall timeout" in msgs[-1]
    res = run.run_round(ROOT, "homology", seed=1, limits=(run.AS_LIMIT, 1))
    assert run.round_failures(res)[1] == len(jobs.JOB_IDS["homology"])


def test_traced_layers_fit_in_the_traced_wall_time():
    res = run.run_round(ROOT, "coloring", seed=1, trace=True)
    assert run.round_failures(res)[1] == 0
    layers = res["layers"]
    assert sum(layers[m] for m in run.spans.TIME_METRICS) <= res["wall_s"] * 1000
    assert layers["coloring.lift_ms"] > 0 and layers["coloring.region_fill_ms"] > 0
    assert layers["cli.self_ms"] > 0 and layers["diagram.faces"] > 0


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "coloring",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
