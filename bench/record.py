"""Record the outputs the benchmark gates on.

Usage: ``python3 bench/record.py`` from the root of a checkout.

Runs the checkout's pblock in one child process over every verify workload
and every entry of the inspect pool, and writes ``reference/verify.json``
(check name -> detail string, per prime) and ``reference/inspect_digests.txt``
(one output digest per pool entry, in pool order).  The committed references
were recorded when the benchmark was added; re-record only when an output is
meant to change.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    verify_calls = [argv for argv, _ in workloads.VERIFY_CALLS.values()]
    pool = workloads.inspect_pool()
    report = run.spawn("run", verify_calls + [workloads.inspect_argv(p, la) for p, la in pool])
    results = report["results"]

    details: dict[str, dict[str, str]] = {}
    for result in results[:len(verify_calls)]:
        for p, name, status, detail, counterexample in result["checks"]:
            if status != "pass":
                raise SystemExit(f"p={p} {name} failed: {detail} ({counterexample})")
            details.setdefault(str(p), {})[name] = detail
    digests = []
    for (p, la), result in zip(pool, results[len(verify_calls):], strict=True):
        if result["rc"] != 0 or not result["jm_agree"]:
            raise SystemExit(f"inspect {la} --p {p}: exit code {result['rc']}, "
                             f"oracles agree: {result['jm_agree']}")
        digests.append(result["digest"])

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(workloads.REFERENCE_DIR, "verify.json"), "w") as fh:
        json.dump(dict(sorted(details.items(), key=lambda kv: int(kv[0]))), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(workloads.REFERENCE_DIR, "inspect_digests.txt"), "w") as fh:
        fh.write("\n".join(digests) + "\n")
    print(f"recorded {sum(map(len, details.values()))} checks and {len(digests)} inspect digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
