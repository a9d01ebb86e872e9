"""One round of a benchmark workload, in a fresh interpreter.

Started by ``run.py`` from the checkout root with ``PYTHONPATH=src``.  It
imports quandlekit, builds the workload (the set-up), runs every job once,
checks the outputs and reports events as ``@@ <json>`` lines on stdout:

* ``setup``: the monotonic time at which the first job starts, the CPU time
  spent until then, the job count and the resolved ``quandlekit.__file__``;
* ``job``: one per job, with its CPU time and check result;
* ``done``: the round's wall and CPU time, its speed (see ``jobs.run_jobs``),
  peak RSS and, when traced, the spans and per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import jobs as workloads


def emit(**event) -> None:
    sys.__stdout__.write("@@ " + json.dumps(event) + "\n")
    sys.__stdout__.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--reference", help="digest file; omitted when recording")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()

    import quandlekit

    qfile = os.path.realpath(quandlekit.__file__)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    jobs = workloads.build(args.workload, workloads.Context(root, args.seed))
    emit(event="setup", t=time.monotonic(), cpu=workloads.cpu_seconds(), jobs=len(jobs),
         quandlekit=qfile)
    if args.setup_only:
        return 0

    outs, errors, timings = workloads.run_jobs(jobs, tracer)

    reference = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)["digests"]
    verdicts = workloads.check_jobs(args.workload, jobs, outs, errors, reference)
    for job in jobs:
        out = outs.get(job.id)
        emit(event="job", id=job.id, ms=timings["times"][job.id], error=verdicts[job.id],
             digest=workloads.digest(out.text) if out else None,
             handler_ms=out.handler_ms if out else None, recorded=job.recorded)

    done = {"wall_s": timings["wall_s"], "cpu_s": timings["cpu_s"], "speed": timings["speed"],
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        ids = {job.id for job in jobs}
        done["layers"] = {**spans.layer_metrics(tracer.spans, ids), **tracer.object_counts()}
        done["spans"] = tracer.spans
    emit(event="done", **done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
