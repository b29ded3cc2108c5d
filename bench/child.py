"""The timed process: one fresh interpreter serving a list of CLI requests.

Usage: ``python3 -I bench/child.py setup|run|trace < calls.json``

stdin holds a JSON list of ``pblock.cli.main`` argument lists.  The process
imports pblock from the checkout's ``src/``, reads its calls, and then:

- ``setup`` stops there;
- ``run`` serves the calls in order, one at a time;
- ``trace`` does the same with spans around pblock's public functions.

Its last line of stdout is one JSON object: the monotonic time at which set-up
ended, the time from the first call to the end of the last, per-call results
(exit code, operation latencies, output digest, and the check list of a
``verify`` call or whether the two irreducibility verdicts of an ``inspect``
call agree), peak RSS, cache counts and, when traced, the span totals.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import pblock  # noqa: E402
from pblock import cli  # noqa: E402

import spans  # noqa: E402

JM = re.compile(r'"jm_(direct|fayers)": (true|false)')


def output_digest(text: str) -> str:
    """The digest recorded for one call's stdout."""
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def call_facts(argv: list[str], text: str) -> dict:
    """What the output gate reads from one call's stdout, beyond its digest."""
    if argv[0] == "verify":
        try:
            payload = json.loads(text)
        except ValueError:
            return {"checks": []}
        return {"checks": [[report["p"], c["name"], c["status"], c["detail"], c["counterexample"]]
                           for report in payload["results"] for c in report["checks"]]}
    verdicts = dict(JM.findall(text))
    return {"jm_agree": len(verdicts) == 2 and verdicts["direct"] == verdicts["fayers"]}


def time_checks(checks: dict, sink: list[float]) -> None:
    """Append the duration of every call of a ``verify.CHECKS`` entry to ``sink``.

    The JSON output rounds each check's ``elapsed`` to the millisecond, too
    coarse for the checks at p = 5.
    """
    for name, check in list(checks.items()):
        def timed(p, check=check):
            start = time.perf_counter()
            try:
                return check(p)
            finally:
                sink.append(time.perf_counter() - start)
        checks[name] = timed


def serve(calls: list[list[str]]) -> tuple[float, float, list[dict]]:
    """Run every call through ``cli.main``; returns (first start, last end, results).

    An operation is one request, or one check of a ``verify`` request.
    """
    check_times: list[float] = []
    time_checks(spans.submodule(pblock, "verify").CHECKS, check_times)
    results = []
    first = None
    for argv in calls:
        del check_times[:]
        buf = io.StringIO()
        with redirect_stdout(buf):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is one failed operation
                rc = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        first = start if first is None else first
        text = buf.getvalue()
        results.append({"rc": rc, "latencies": list(check_times) or [end - start],
                        "digest": output_digest(text), **call_facts(argv, text)})
    return first, end, results


def main() -> int:
    mode = sys.argv[1]
    if not pblock.__file__.startswith(os.path.join(ROOT, "src")):
        print(f"pblock imported from {pblock.__file__}, not from the checkout", file=sys.stderr)
        return 2
    calls = json.load(sys.stdin)
    ready = time.monotonic()
    out = {"ready": ready}
    if mode != "setup":
        read_caches = spans.cache_reader(pblock)
        tracer = spans.Tracer() if mode == "trace" else None
        if tracer:
            tracer.install(pblock)
        first, last, results = serve(calls)
        out.update(wall_s=last - first, results=results,
                   rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   caches=read_caches(), spans=tracer.report() if tracer else None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
