"""The quandlekit benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  This process runs one round child at
a time (closed loop, one client, no threads): each round is a fresh
interpreter that imports quandlekit from the checkout's ``src/``, builds the
workload, runs every job once and checks every output.  Rounds repeat until
``--seconds`` have passed and there are ``MIN_ROUNDS`` untraced rounds.

Times are CPU times (user plus system) of the round child at the reference
speed, medians over the rounds of a run.  On a shared machine other tenants
slow the same work by up to two times for seconds at a stretch, in CPU time
as well as in wall time.  So each round also times a fixed calibration slice
before every job (``jobs.run_jobs``) and its times are divided by the
round's speed: the slices' CPU time over their time at the reference speed.
The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (taken
from traced rounds that alternate with untraced ones).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as workloads  # noqa: E402
import spans  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join("perfbench", ".out")
AS_LIMIT = 3 << 30  # bytes of address space for a round child
CPU_LIMIT = 150  # CPU seconds for a round child
RUN_DEADLINE = 150  # no round starts after this many seconds of the run
MIN_ROUNDS = 12  # untraced rounds a run takes its medians over, at least

# Raw CPU and wall times are printed but carry no bound: on a shared 2-vCPU
# machine their medians moved by 15-60% between runs of the same code.
END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {m: "ms" for m in spans.TIME_METRICS}
    units.update({m: "count" for m in spans.COUNT_METRICS + spans.OBJECT_METRICS})
    units.update({"cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.handler_ms": "ms",
                  "coloring.seed_yield": "ratio", "trace.overhead_frac": "ratio"})
    for workload, ids in workloads.JOB_IDS.items():
        units.update({f"job.{workload}.{i}_ms": "ms" for i in ids})
    return units


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("QUANDLEKIT_BUDGET", None)  # the budget job expects the default
    # Users run from compiled bytecode (pip compiles on install), so the
    # warm-up must be able to write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every round
    return env


def run_round(root: str, workload: str, seed: int, *, trace: bool = False,
              reference: str | None = REFERENCE, setup_only: bool = False,
              timeout: float = 170.0, limits: tuple[int, int] = (AS_LIMIT, CPU_LIMIT)) -> dict:
    """Run one round child under the resource guard and collect its events."""

    def guard() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limits[0], limits[0]))
        resource.setrlimit(resource.RLIMIT_CPU, (limits[1], limits[1]))

    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if reference:
        cmd += ["--reference", reference]
    if setup_only:
        cmd.append("--setup-only")
    launched, cpu_before = time.monotonic(), _children_cpu()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=guard)
    tripped = None
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        tripped = f"wall timeout after {timeout:.0f} s"
    if tripped is None and proc.returncode != 0:
        tripped = f"child exited with {proc.returncode}: {err.strip().splitlines()[-1:]}"
    res = {"jobs": [], "guard": tripped, "trace": trace,
           "process_cpu_s": _children_cpu() - cpu_before}
    for line in out.splitlines():
        if line.startswith("@@ "):
            event = json.loads(line[3:])
            kind = event.pop("event")
            if kind == "setup":
                res.update(setup_s=event["t"] - launched, setup_cpu_s=event["cpu"],
                           n_jobs=event["jobs"], quandlekit=event["quandlekit"])
            elif kind == "job":
                res["jobs"].append(event)
            else:
                res.update(event)
    if setup_only:
        res["n_jobs"] = 0
    return res


def _children_cpu() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def round_failures(res: dict) -> tuple[int, int, list[str]]:
    """Attempted and failed jobs of a round, with the failure messages."""
    attempted = max(res.get("n_jobs", 1), 1)
    msgs = [f"{j['id']}: {j['error']}" for j in res["jobs"] if j["error"]]
    passed = sum(1 for j in res["jobs"] if not j["error"])
    if res["guard"]:
        msgs.append(f"resource guard: {res['guard']}")
    if "wall_s" not in res:
        passed = 0
    return attempted, attempted - passed, msgs


def at_reference(rounds: list[dict], key: str) -> float:
    """Median over rounds of ``key`` divided by the round's speed."""
    return statistics.median(r[key] / r["speed"] for r in rounds if "speed" in r)


def job_times(untraced: list[dict]) -> dict:
    """Each job's CPU time (ms) at the reference speed, median over rounds."""
    samples: dict = {}
    for r in untraced:
        for j in r["jobs"]:
            samples.setdefault(j["id"], []).append(j["ms"] / r["speed"])
    return {i: statistics.median(v) for i, v in samples.items()}


def _start_ms(root: str, code: str, n: int = 5) -> float:
    """Median wall time of ``python -c <code>`` started n times."""
    times = []
    for _ in range(n):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root), check=True)
        times.append((time.monotonic() - start) * 1000)
    return statistics.median(times)


def machine_record(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "mem_gb": round(mem / 2**30, 1)}


def measure(root: str, workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict]]:
    """Untimed warm-up, then rounds until ``seconds`` have passed."""
    start = time.monotonic()
    # Warm-up: compile the bytecode a user pays for once.
    run_round(root, workload, seed, setup_only=True)
    untraced: list[dict] = []
    traced: list[dict] = []
    rnd = 0
    began = time.monotonic()
    while True:
        is_traced = trace and rnd % 2 == 1
        remaining = 170 - (time.monotonic() - start)
        res = run_round(root, workload, seed, trace=is_traced, timeout=max(remaining, 1.0))
        (traced if is_traced else untraced).append(res)
        rnd += 1
        elapsed = time.monotonic() - began
        done = elapsed >= seconds and len(untraced) >= MIN_ROUNDS and (traced or not trace)
        if done or time.monotonic() - start > RUN_DEADLINE:
            break
    return untraced, traced


def end_to_end(untraced: list[dict]) -> dict:
    return {
        "setup_s": at_reference(untraced, "setup_cpu_s"),
        "cpu_s": at_reference(untraced, "cpu_s"),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in untraced if "maxrss_mb" in r),
    }


def per_layer(root: str, workload: str, untraced: list[dict], traced: list[dict]) -> dict:
    rounds = [r["layers"] for r in traced if "layers" in r]
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    interp = _start_ms(root, "pass")
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = _start_ms(root, "import quandlekit.cli") - interp
    metrics["cli.handler_ms"] = statistics.median(
        [j["handler_ms"] for r in untraced for j in r["jobs"] if j["handler_ms"] is not None])
    times = job_times(untraced)
    for w, ids in workloads.JOB_IDS.items():
        for i in ids:
            metrics[f"job.{w}.{i}_ms"] = times[i] if w == workload else 0.0
    metrics["trace.overhead_frac"] = (at_reference(traced, "cpu_s")
                                      / at_reference(untraced, "cpu_s") - 1)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src_pkg = os.path.join(root, "src", "quandlekit", "__init__.py")
    if not os.path.isfile(src_pkg):
        print(f"error: {src_pkg} not found; run from the root of a quandlekit checkout",
              file=sys.stderr)
        return 2

    machine = machine_record(root)
    print(f"# machine: {json.dumps(machine)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    untraced, traced = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))

    attempted = failed = 0
    problems: list[str] = []
    expected_file = os.path.realpath(src_pkg)
    for res in untraced + traced:
        a, f, msgs = round_failures(res)
        attempted, failed = attempted + a, failed + f
        problems += msgs
        if res.get("quandlekit") != expected_file:
            problems.append(f"quandlekit imported from {res.get('quandlekit')}, "
                            f"not {expected_file}")
    print(f"# quandlekit: {untraced[0].get('quandlekit')}")
    print(f"# rounds: {len(untraced)} untraced, {len(traced)} traced")
    for label, rounds in (("untraced", untraced), ("traced", traced)):
        for key in ("wall_s", "cpu_s", "speed"):
            values = [r[key] for r in rounds if key in r]
            if values:
                print(f"# {label} round {key}: median {statistics.median(values):.4f}; "
                      + " ".join(f"{v:.3f}" for v in values))
    for msg in sorted(set(problems)):
        print(f"# FAIL {msg}")
    print(f"# fail_frac {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    correct = not problems

    metrics: dict = {}
    if correct and not args.trace:
        values = end_to_end(untraced)
        # A round child is one process a user starts; too few samples for a p90.
        process = [r["process_cpu_s"] for r in untraced]
        print(f"# round process CPU time, launch to exit: median "
              f"{statistics.median(process):.4f} s ({len(process)} samples)")
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    elif correct:
        units = per_layer_units()
        values = per_layer(root, args.workload, untraced, traced)
        self_sum = sum(values[m] for m in spans.TIME_METRICS)
        traced_wall = statistics.median(r["wall_s"] for r in traced) * 1000
        print(f"# layer self times sum to {self_sum:.1f} ms of {traced_wall:.1f} ms traced wall")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        trace_file = os.path.join(root, OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "parent", "job", "start", "end", "count",
                                       "x_size"],
                       "rounds": [r.get("spans", []) for r in traced]}, fh)
        print(f"# spans written to {os.path.relpath(trace_file, root)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
