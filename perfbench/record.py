"""Write ``perfbench/reference.json``: the sha256 of every recorded job's output.

    python3 perfbench/record.py

Run from the root of a checkout.  The digests pin the outputs of the code the
benchmark runs against; re-record only when a change to the benchmark adds
or alters a job, never to make a changed program output pass.
"""

import json
import sys

import run


def main() -> int:
    digests = {}
    for workload in run.workloads.WORKLOADS:
        res = run.run_round(".", workload, seed=1, reference=None)
        _, failed, msgs = run.round_failures(res)
        if failed:
            print(f"{workload}: {msgs}", file=sys.stderr)
            return 1
        digests.update({f"{workload}/{j['id']}": j["digest"] for j in res["jobs"]
                        if j["recorded"]})
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
