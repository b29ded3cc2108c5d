"""Seeded inputs and recorded references for the benchmark workloads.

Nothing here imports pblock: inputs are built by the benchmark's own code in
the parent process, so the timed process starts with cold caches and the
program under test never shapes its own inputs.

Each workload is a list of ``pblock.cli.main`` argument lists.  The verify
workloads are fixed by definition (the seed does not change them); the
``inspect-stream`` workload draws a stream of single-partition queries from a
fixed pool whose outputs were recorded when the benchmark was added.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

PRIMES = (5, 7, 11, 13, 17, 23)
STREAM_LENGTH = 4000
RANDOM_POOL_SIZE = 4000
RANDOM_POOL_SEED = 150504800
N_MIN, N_MAX = 10, 45

# Primes a `verify` argument list covers: `--deep` sweeps 5, 7, 11 and 13.
VERIFY_CALLS = {
    "verify-p23": (["verify", "--p", "23", "--json"], (23,)),
    "verify-sweep": (["verify", "--deep", "--json"], (5, 7, 11, 13)),
}
WORKLOADS = ("verify-p23", "verify-sweep", "inspect-stream")

_SMALL_PARTITIONS = {0: [()], 1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}


def _multipartitions(runners: int, total: int):
    """Tuples of ``runners`` partitions whose sizes sum to ``total`` (at most 3)."""
    if runners == 0:
        if total == 0:
            yield ()
        return
    for size in range(total + 1):
        for head in _SMALL_PARTITIONS[size]:
            for tail in _multipartitions(runners - 1, total - size):
                yield (head,) + tail


def principal_block(p: int) -> list[tuple[int, ...]]:
    """Partitions of 3p with empty p-core, in descending lex order.

    Built on the 3p-bead abacus: runner r carries the 0-based beta-numbers
    ``level * p + r`` whose levels are ``{k1 + 2, k2 + 1, k3}`` for its
    quotient component ``(k1, k2, k3)``; the components range over all
    p-multipartitions of 3.
    """
    out = []
    for comps in _multipartitions(p, 3):
        betas = []
        for r, comp in enumerate(comps):
            k = comp + (0,) * (3 - len(comp))
            betas.extend((level * p + r) for level in (k[0] + 2, k[1] + 1, k[2]))
        betas.sort(reverse=True)
        beads = len(betas)
        la = tuple(b - (beads - 1 - i) for i, b in enumerate(betas))
        out.append(tuple(part for part in la if part))
    return sorted(out, reverse=True)


def _partition_counts(n_max: int) -> list[list[int]]:
    """``counts[n][k]``: partitions of n with every part at most k."""
    counts = [[1] * (n_max + 1)]
    for n in range(1, n_max + 1):
        row = [0] * (n_max + 1)
        for k in range(1, n_max + 1):
            row[k] = row[k - 1] + (counts[n - k][k] if k <= n else 0)
        counts.append(row)
    return counts


def random_partition(rng: random.Random, n: int, counts) -> tuple[int, ...]:
    """A partition of n drawn uniformly, largest part first."""
    parts = []
    k = n
    while n:
        r = rng.randrange(counts[n][k])
        for m in range(min(k, n), 0, -1):
            c = counts[n - m][m]
            if r < c:
                break
            r -= c
        parts.append(m)
        n -= m
        k = m
    return tuple(parts)


def inspect_pool() -> list[tuple[int, tuple[int, ...]]]:
    """The fixed (p, partition) pool that the recorded references cover.

    Every principal-block member for each prime comes first, then
    RANDOM_POOL_SIZE random partitions of n in N_MIN..N_MAX, each with a
    prime drawn from PRIMES.
    """
    pool = [(p, la) for p in PRIMES for la in principal_block(p)]
    rng = random.Random(RANDOM_POOL_SEED)
    counts = _partition_counts(N_MAX)
    for _ in range(RANDOM_POOL_SIZE):
        p = rng.choice(PRIMES)
        pool.append((p, random_partition(rng, rng.randint(N_MIN, N_MAX), counts)))
    return pool


def inspect_argv(p: int, la: tuple[int, ...]) -> list[str]:
    return ["inspect", ",".join(map(str, la)), "--p", str(p), "--json"]


def inspect_stream(seed: int, pool) -> list[int]:
    """Pool indices of one stream: half principal-block members, half random.

    A principal-block query draws its prime from PRIMES and then a member of
    that block; the random half is drawn from the random part of the pool
    without replacement.  The two halves are shuffled together.
    """
    rng = random.Random(seed)
    n_principal = len(pool) - RANDOM_POOL_SIZE
    by_prime: dict[int, list[int]] = {}
    for index in range(n_principal):
        by_prime.setdefault(pool[index][0], []).append(index)
    half = STREAM_LENGTH // 2
    picks = [rng.choice(by_prime[rng.choice(PRIMES)]) for _ in range(half)]
    picks += rng.sample(range(n_principal, len(pool)), STREAM_LENGTH - half)
    rng.shuffle(picks)
    return picks


def load_verify_reference() -> dict[int, dict[str, str]]:
    """Check name -> detail string per prime, as recorded when the benchmark was added."""
    with open(os.path.join(REFERENCE_DIR, "verify.json")) as fh:
        return {int(p): details for p, details in json.load(fh).items()}


def load_inspect_reference() -> list[str]:
    """Output digest of each pool entry, in pool order."""
    with open(os.path.join(REFERENCE_DIR, "inspect_digests.txt")) as fh:
        return fh.read().split()


def build(workload: str, seed: int) -> tuple[list[list[str]], list]:
    """Argument lists of one workload and the expected outcome of each call.

    For a verify call the expectation is ``{p: {check: detail}}``; for an
    inspect call it is the output digest.
    """
    if workload in VERIFY_CALLS:
        argv, primes = VERIFY_CALLS[workload]
        details = load_verify_reference()
        return [list(argv)], [{p: details[p] for p in primes}]
    if workload == "inspect-stream":
        pool = inspect_pool()
        digests = load_inspect_reference()
        if len(digests) != len(pool):
            raise RuntimeError(f"{len(digests)} recorded digests for a pool of {len(pool)}")
        picks = inspect_stream(seed, pool)
        return [inspect_argv(*pool[i]) for i in picks], [digests[i] for i in picks]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
