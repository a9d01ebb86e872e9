"""Time fresh `python3 -m quandlekit` commands on several source trees.

Usage:
    python3 scripts/sweep.py --tree parent=../old --tree change=. [--runs 5]
        [--max-mb 1500] [--max-cpu-s 60]
        -- "color torus:3:6 dihedral:3 --list" ... > sweep.json

Each run of a command is one fresh `python3 -m quandlekit` process with
PYTHONPATH=<tree>/src, PYTHONHASHSEED=0 and bytecode caching on (the first
run writes the tree's __pycache__, the others read it).  It is the only
child of a small measuring process, which reads getrusage(RUSAGE_CHILDREN):
the CPU time (user + system) and the peak RSS of that one process,
interpreter start and import included; it runs in the tree's directory, so
relative paths name the tree's files.  Runs alternate which tree goes
first.  The output is JSON: per command and tree, the medians of CPU seconds
and peak RSS in MB, each run's CPU seconds and peak RSS in run order, the
least CPU seconds, and the exit code and stdout sha256 (equal on every run,
or "varies").  Children inherit the environment, so QUANDLEKIT_BUDGET
applies to every run; the output names its value ("budget", null when
unset) and its "method" says so.  --max-mb caps the address space of each
quandlekit process and --max-cpu-s its CPU seconds (setrlimit RLIMIT_AS and
RLIMIT_CPU, set in that process only); the output names both ("max_mb",
"max_cpu_s", null when unset) and so does "method".  A run that trips a
cap is measured like any other: its exit code is negative, -signal, when
a signal ended it (SIGXCPU past the CPU cap), and "signal" names it, so a
command that would exhaust the machine ends the sweep normally.
Fresh CPU on a shared machine can fall in two clusters, where a median
moves with the cluster it lands in; the runs and the least of them show
it.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys

# Runs argv[3:] as its only child, under the caps argv[1] (MB) and argv[2]
# (CPU s), "" for none, and prints [cpu_s, maxrss_kb, exit, stdout sha256].
_MEASURE = """
import hashlib, json, resource, subprocess, sys
mb, cpu = sys.argv[1:3]
def cap():
    if mb:
        resource.setrlimit(resource.RLIMIT_AS, (int(mb) << 20,) * 2)
    if cpu:
        resource.setrlimit(resource.RLIMIT_CPU, (int(cpu), int(cpu) + 1))
proc = subprocess.run(sys.argv[3:], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                      preexec_fn=cap)
use = resource.getrusage(resource.RUSAGE_CHILDREN)
digest = hashlib.sha256(proc.stdout).hexdigest()
print(json.dumps([use.ru_utime + use.ru_stime, use.ru_maxrss, proc.returncode, digest]))
"""


def measure(tree: str, command: str, max_mb: int | None = None,
            max_cpu_s: int | None = None) -> tuple[float, float, int, str]:
    """One fresh run of `python3 -m quandlekit <command>` on tree's sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    # Without bytecode caching every run of a fresh tree recompiles the package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    caps = ["" if v is None else str(v) for v in (max_mb, max_cpu_s)]
    argv = [sys.executable, "-c", _MEASURE, *caps, sys.executable, "-m", "quandlekit"]
    out = subprocess.run(argv + shlex.split(command), env=env, cwd=tree,
                         capture_output=True, text=True, check=True).stdout
    cpu, maxrss_kb, code, digest = json.loads(out)
    return cpu, maxrss_kb / 1024, code, digest


def sweep(trees: dict[str, str], commands: list[str], runs: int,
          max_mb: int | None = None, max_cpu_s: int | None = None) -> dict:
    names = list(trees)
    budget = os.environ.get("QUANDLEKIT_BUDGET")
    rows = []
    for command in commands:
        seen: dict[str, list[tuple[float, float, int, str]]] = {name: [] for name in names}
        for i in range(runs):
            for name in names if i % 2 == 0 else names[::-1]:
                seen[name].append(measure(trees[name], command, max_mb, max_cpu_s))
        row: dict = {"command": f"quandlekit {command}"}
        for name, got in seen.items():
            cpus = [cpu for cpu, _, _, _ in got]
            codes = {code for _, _, code, _ in got}
            digests = {digest for _, _, _, digest in got}
            code = codes.pop() if len(codes) == 1 else "varies"
            row[name] = {
                "cpu_s": round(statistics.median(cpus), 3),
                "cpu_s_min": round(min(cpus), 3),
                "cpu_s_runs": [round(cpu, 3) for cpu in cpus],
                "peak_rss_mb": round(statistics.median(rss for _, rss, _, _ in got), 1),
                "peak_rss_mb_runs": [round(rss, 1) for _, rss, _, _ in got],
                "exit": code,
                "stdout_sha256": digests.pop() if len(digests) == 1 else "varies",
            }
            if code != "varies" and code < 0:
                row[name]["signal"] = signal.Signals(-code).name
        rows.append(row)
    return {
        "method": (
            "one fresh `python3 -m quandlekit` process per run with "
            "PYTHONPATH=<tree>/src and PYTHONHASHSEED=0, the only child of a "
            "measuring process that reads getrusage(RUSAGE_CHILDREN); "
            f"{runs} runs per tree, alternating which tree goes first; medians, "
            "each run's CPU seconds and peak RSS, and the least CPU seconds"
            + (f"; QUANDLEKIT_BUDGET={budget} in every run" if budget is not None else "")
            + (f"; address space capped at {max_mb} MB" if max_mb is not None else "")
            + (f"; CPU capped at {max_cpu_s} s" if max_cpu_s is not None else "")
        ),
        "budget": budget,
        "max_mb": max_mb,
        "max_cpu_s": max_cpu_s,
        "trees": names,
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=PATH",
                        help="a source tree to run (its src/ goes on PYTHONPATH)")
    parser.add_argument("--runs", type=int, default=5, help="runs per tree and command")
    parser.add_argument("--max-mb", type=int, help="address-space cap of each run, in MB")
    parser.add_argument("--max-cpu-s", type=int, help="CPU-time cap of each run, in seconds")
    parser.add_argument("commands", nargs="+", help="quandlekit arguments, one string each")
    args = parser.parse_args(argv)
    trees = {}
    for spec in args.tree:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            parser.error(f"--tree wants NAME=PATH, got {spec!r}")
        trees[name] = os.path.abspath(path)
    for cap in (args.max_mb, args.max_cpu_s):
        if cap is not None and cap < 1:
            parser.error("caps must be positive")
    print(json.dumps(sweep(trees, args.commands, args.runs, args.max_mb, args.max_cpu_s),
                     indent=1))


if __name__ == "__main__":
    main()
