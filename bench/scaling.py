"""One-off scaling record of cold ``pblock verify --p P``, one run per prime.

Usage: ``python3 bench/scaling.py`` from the root of a checkout (about three
minutes).  Writes ``scaling.json`` next to this file: per prime the
principal-block size, the wall time of the verify request, peak RSS and the
time and verdict of every check, as in the baseline table of ROADMAP.md.
These primes are a record, not gated workloads.
"""

from __future__ import annotations

import json
import os
import platform
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

PRIMES = (5, 11, 17, 23, 29, 31)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    rows = []
    for p in PRIMES:
        report = run.spawn("run", [["verify", "--p", str(p), "--json"]])
        (result,) = report["results"]
        checks = {name: {"s": round(t, 4), "status": status}
                  for (_, name, status, _, _), t in zip(result["checks"], result["latencies"],
                                                       strict=True)}
        rows.append({"p": p, "principal_block": len(workloads.principal_block(p)),
                     "verify_s": round(report["wall_s"], 3),
                     "peak_rss_mb": round(report["rss_kb"] / 1024, 1),
                     "slowest_check": max(checks, key=lambda name: checks[name]["s"]),
                     "checks": checks})
        print(f"p={p:2d}  verify {report['wall_s']:6.2f} s  rss {report['rss_kb'] / 1024:5.1f} MB",
              flush=True)
    record = {"python": platform.python_version(), "cpu": cpu_model(),
              "cpus": os.cpu_count(), "runs_per_prime": 1, "primes": rows}
    with open(os.path.join(workloads.HERE, "scaling.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
