"""End-to-end benchmark of pblock, run from the root of a checkout.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one client, closed loop, requests served one after another, each
timed process a fresh interpreter as a CLI user gets):

- ``verify-p23``: ``pblock verify --p 23 --json`` in a cold process.
- ``verify-sweep``: ``pblock verify --deep --json`` (p = 5, 7, 11, 13 in one
  process).
- ``inspect-stream``: a seeded stream of 4000 ``pblock inspect LA --p P
  --json`` requests in one process (see ``workloads.py``).

The inputs are made here, in the parent; the timed processes (``child.py``)
only import pblock, read them and serve them.  With ``--trace 0`` the parent
first starts SETUP_PROBES processes that stop after set-up, then starts timed
processes one after another until ``--seconds`` have passed (at least
MIN_CHILDREN), and reports the median over them of:

- ``setup_s``: interpreter spawn until pblock is imported and the inputs are
  loaded (median over the probes and the timed processes);
- ``wall_s``: first timed call to the end of the last;
- ``peak_rss_mb``: ``ru_maxrss`` of the timed process;
- ``queries_per_s``, ``query_p50_ms``, ``query_p99_ms``: per operation.  An
  operation is one request on ``inspect-stream`` (timed around
  ``cli.main``) and one check on the verify workloads (timed around its
  ``verify.CHECKS`` entry).

With ``--trace 1`` it runs one untraced and one traced process and reports
the span totals of the traced one (see ``spans.py``), the cache counts, and
the tracing overhead (traced ``wall_s`` minus untraced ``wall_s``).

Every run gates every operation against the references recorded when the
benchmark was added (``reference/``): each verify check must pass with its recorded
``detail`` string; each inspect record must have ``jm_direct == jm_fayers``
and the recorded output digest.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 20
MIN_CHILDREN = 2
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{module}.self_s": "s" for module in spans.MODULES}
    for module, names in spans.TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.s"] = "s"
    for check in spans.CHECK_NAMES:
        units[f"verify.{check}.s"] = "s"
    for module, name in spans.CACHED:
        for field in ("hits", "misses", "currsize"):
            units[f"{module}.{name}.{field}"] = "count"
    units["trace_overhead_s"] = "s"
    return units


class ChildError(RuntimeError):
    pass


def spawn(mode: str, calls: list[list[str]]) -> dict:
    """Run one child process to completion and return its report, with ``setup_s``."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-I", CHILD, mode], input=json.dumps(calls),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} process exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{mode} process exited with {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    # Both clocks are CLOCK_MONOTONIC, which is shared by all processes.
    report["setup_s"] = report["ready"] - spawned
    return report


def failed_operations(result: dict, expect) -> tuple[int, list[str]]:
    """(operations attempted, one message per failed operation) for one call."""
    if isinstance(expect, str):
        if result["rc"] != 0:
            return 1, [f"exit code {result['rc']}"]
        if not result["jm_agree"]:
            return 1, ["jm_direct and jm_fayers disagree"]
        if result["digest"] != expect:
            return 1, [f"output digest {result['digest']} != recorded {expect}"]
        return 1, []
    got = {(p, name): (status, detail, counterexample)
           for p, name, status, detail, counterexample in result["checks"]}
    keys = sorted({(p, name) for p, details in expect.items() for name in details} | set(got))
    failures = []
    for p, name in keys:
        status, detail, counterexample = got.get((p, name), ("missing", None, None))
        recorded = expect.get(p, {}).get(name)
        if result["rc"] != 0 or status != "pass" or counterexample is not None:
            failures.append(f"p={p} {name}: {status} (exit code {result['rc']})")
        elif recorded is not None and detail != recorded:
            failures.append(f"p={p} {name}: detail {detail!r} != recorded {recorded!r}")
    return len(keys), failures


def latencies_ms(report: dict) -> list[float]:
    """Per-operation latencies of one process: per request, or per check for verify."""
    return [1000.0 * t for result in report["results"] for t in result["latencies"]]


def verdicts(report: dict) -> list:
    """What must agree between a traced and an untraced process (no timings)."""
    out = [[r["rc"], r["checks"] if "checks" in r else r["digest"]] for r in report["results"]]
    return out + [report["caches"]]


def stream_digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def end_to_end(setups: list[float], children: list[dict]) -> dict[str, float]:
    rows = []
    for child in children:
        lat = latencies_ms(child)
        q50, q99 = (statistics.quantiles(lat, n=100, method="inclusive")[k] for k in (49, 98))
        rows.append({"wall_s": child["wall_s"], "peak_rss_mb": child["rss_kb"] / 1024,
                     "queries_per_s": len(lat) / child["wall_s"],
                     "query_p50_ms": q50, "query_p99_ms": q99})
    metrics = {"setup_s": statistics.median(setups)}
    for name in END_TO_END:
        if name != "setup_s":
            metrics[name] = statistics.median(row[name] for row in rows)
    return metrics


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    found = dict(traced["spans"])
    found.update(traced["caches"])
    found["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {name: found.get(name, 0) for name in per_layer_units()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pblock", "cli.py")):
        print(f"no pblock sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    calls, expected = workloads.build(args.workload, args.seed)

    try:
        if args.trace:
            children = [spawn("run", calls), spawn("trace", calls)]
        else:
            setups = [spawn("setup", calls)["setup_s"] for _ in range(SETUP_PROBES)]
            start = time.monotonic()
            children = []
            while len(children) < MIN_CHILDREN or time.monotonic() - start < args.seconds:
                children.append(spawn("run", calls))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failures = 0, []
    for child in children:
        for result, expect in zip(child["results"], expected, strict=True):
            count, failed = failed_operations(result, expect)
            attempted += count
            failures += failed
    correct = not failures
    if args.trace:
        plain, traced = children
        if verdicts(plain) != verdicts(traced):
            correct = False
            print("traced and untraced runs disagree on verdicts, digests or cache counts")
        metrics, units = per_layer(plain, traced), per_layer_units()
    else:
        metrics, units = end_to_end(setups + [c["setup_s"] for c in children], children), END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  processes {len(children)}  "
          f"operations/process {len(latencies_ms(children[0]))}")
    if args.workload == "inspect-stream":
        print(f"output digest {stream_digest(r['digest'] for r in children[0]['results'])}  "
              f"recorded {stream_digest(expected)}")
    for message in failures[:20]:
        print(f"FAILED {message}")
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
