"""Time fresh `python3 -m quandlekit` commands on several source trees.

Usage:
    python3 scripts/sweep.py --tree parent=../old --tree change=. [--runs 5]
        -- "color torus:3:6 dihedral:3 --list" ... > sweep.json

Each run of a command is one fresh `python3 -m quandlekit` process with
PYTHONPATH=<tree>/src, PYTHONHASHSEED=0 and bytecode caching on (the first
run writes the tree's __pycache__, the others read it).  It is the only
child of a small measuring process, which reads getrusage(RUSAGE_CHILDREN):
the CPU time (user + system) and the peak RSS of that one process,
interpreter start and import included; it runs in the tree's directory, so
relative paths name the tree's files.  Runs alternate which tree goes
first.  The output is JSON: per command and tree, the medians of CPU seconds
and peak RSS in MB, and the exit code and stdout sha256 (equal on every
run, or "varies").  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys

# Runs argv as its only child and prints [cpu_s, maxrss_kb, exit, stdout sha256].
_MEASURE = """
import hashlib, json, resource, subprocess, sys
proc = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
use = resource.getrusage(resource.RUSAGE_CHILDREN)
digest = hashlib.sha256(proc.stdout).hexdigest()
print(json.dumps([use.ru_utime + use.ru_stime, use.ru_maxrss, proc.returncode, digest]))
"""


def measure(tree: str, command: str) -> tuple[float, float, int, str]:
    """One fresh run of `python3 -m quandlekit <command>` on tree's sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    # Without bytecode caching every run of a fresh tree recompiles the package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, "-c", _MEASURE, sys.executable, "-m", "quandlekit"]
    out = subprocess.run(argv + shlex.split(command), env=env, cwd=tree,
                         capture_output=True, text=True, check=True).stdout
    cpu, maxrss_kb, code, digest = json.loads(out)
    return cpu, maxrss_kb / 1024, code, digest


def sweep(trees: dict[str, str], commands: list[str], runs: int) -> dict:
    names = list(trees)
    rows = []
    for command in commands:
        seen: dict[str, list[tuple[float, float, int, str]]] = {name: [] for name in names}
        for i in range(runs):
            for name in names if i % 2 == 0 else names[::-1]:
                seen[name].append(measure(trees[name], command))
        row: dict = {"command": f"quandlekit {command}"}
        for name, got in seen.items():
            codes = {code for _, _, code, _ in got}
            digests = {digest for _, _, _, digest in got}
            row[name] = {
                "cpu_s": round(statistics.median(cpu for cpu, _, _, _ in got), 3),
                "peak_rss_mb": round(statistics.median(rss for _, rss, _, _ in got), 1),
                "exit": codes.pop() if len(codes) == 1 else "varies",
                "stdout_sha256": digests.pop() if len(digests) == 1 else "varies",
            }
        rows.append(row)
    return {
        "method": (
            "one fresh `python3 -m quandlekit` process per run with "
            "PYTHONPATH=<tree>/src and PYTHONHASHSEED=0, the only child of a "
            "measuring process that reads getrusage(RUSAGE_CHILDREN); "
            f"{runs} runs per tree, alternating which tree goes first; medians"
        ),
        "trees": names,
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=PATH",
                        help="a source tree to run (its src/ goes on PYTHONPATH)")
    parser.add_argument("--runs", type=int, default=5, help="runs per tree and command")
    parser.add_argument("commands", nargs="+", help="quandlekit arguments, one string each")
    args = parser.parse_args(argv)
    trees = {}
    for spec in args.tree:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            parser.error(f"--tree wants NAME=PATH, got {spec!r}")
        trees[name] = os.path.abspath(path)
    print(json.dumps(sweep(trees, args.commands, args.runs), indent=1))


if __name__ == "__main__":
    main()
