import functools
from collections import Counter

from hypothesis import strategies as st

import pblock as pb


def all_partitions_up_to(nmax):
    for n in range(nmax + 1):
        yield from pb.partitions_of(n)


@functools.cache
def leg_sum_parities(la, p):
    """Parities of the total leg length over every order of complete rim p-hook removal.

    The orders are read from the public reference ``rim_hook_removals``, one
    removal at a time; a partition's set is built from those of its removals.
    """
    removals = pb.rim_hook_removals(la, p)
    if not removals:
        return frozenset({0})
    return frozenset((leg + q) % 2 for mu, leg in removals for q in leg_sum_parities(mu, p))


@st.composite
def partitions(draw, max_n=20):
    """Random partition of a random n <= max_n (items thrown into bins)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


@st.composite
def regular_partitions(draw, p, max_n=20):
    la = draw(partitions(max_n=max_n))
    while not pb.is_p_regular(la, p):
        la = pb.partition([part for part, count in Counter(la).items()
                           for _ in range(min(count, p - 1))])
    return la


primes_small = st.sampled_from([2, 3, 5, 7])
primes_odd = st.sampled_from([3, 5, 7, 11])
