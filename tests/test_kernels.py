"""The per-member kernels: each against the rule it replaced, and what a sweep of them retains.

The kernels build each tuple from a list or a slice.  A tuple built by ``tuple()``
over a generator, ``map`` or ``groupby`` run starts from 10 slots and shrinks, and
CPython parks it, once freed, on its per-length free list; a sweep of such builds
keeps megabytes of them resident.  The old rules are written out below as the
references.
"""

import operator
import tracemalloc
from itertools import groupby, product

import pytest
from hypothesis import given, settings

import pblock as pb
from pblock.abacus import (
    AbacusDisplay,
    _betas,
    _components,
    _counts,
    _decode,
    _is_jm_fayers,
    _mask,
    _mask_weight,
    rim_hook_leg_sum,
)
from pblock.blocks import BeadNotation, _bead_weights, _partners, counts_3p
from pblock.partitions import _with, _without
from conftest import all_partitions_up_to, partitions

PRIMES = (2, 3, 5, 7)
SMALL = tuple(all_partitions_up_to(20))


# ---------------------------------------------------------------------------
# The old rules
# ---------------------------------------------------------------------------

def old_partition(parts):
    la = tuple(parts)
    try:
        p = tuple(map(operator.index, la))
    except TypeError as exc:
        raise ValueError(f"{la} is not a partition: {exc}") from None
    if bool in map(type, la):
        raise ValueError(f"{la} is not a partition: a boolean part is not an integer")
    while p and p[-1] == 0:
        p = p[:-1]
    if p and p[-1] < 0:
        raise ValueError(f"{la} is not a partition: negative part {p[-1]}")
    if p != tuple(sorted(p, reverse=True)):
        raise ValueError(f"{la} is not a partition: parts not weakly decreasing")
    return p


def old_is_p_regular(la, p):
    return all(len(tuple(run)) < p for _, run in groupby(la))


def old_is_p_restricted(la, p):
    padded = la + (0,)
    return all(padded[i] - padded[i + 1] < p for i in range(len(la)))


def old_normal_nodes(la, p):
    events = {}
    for node in pb.addable_nodes(la):
        events.setdefault(pb.residue(node, p), []).append((node[0], True))
    for node in pb.removable_nodes(la):
        events.setdefault(pb.residue(node, p), []).append((node[0], False))
    normals = []
    for items in events.values():
        open_addables = 0
        for row, is_addable in sorted(items):
            if is_addable:
                open_addables += 1
            elif open_addables > 0:
                open_addables -= 1
            else:
                normals.append((row, la[row - 1]))
    return sorted(normals)


def old_component(rows):
    weights = [t - s for s, t in enumerate(rows, start=1)]
    return tuple(w for w in reversed(weights) if w)


def old_rim_hook_leg_sum(la, p):
    r = pb.default_bead_count(la, p)
    betas = {*range(1, r - len(la) + 1), *(part + r - i for i, part in enumerate(la))}
    total = 0
    while True:
        movable = sorted(m for m in betas if m > p and m - p not in betas)
        if not movable:
            return total
        m = movable[-1]
        total += sum(1 for b in betas if m - p < b < m)
        betas.remove(m)
        betas.add(m - p)


def old_remove_node(la, node):
    i = node[0]
    return old_partition(la[: i - 1] + (la[i - 1] - 1,) + la[i:])


def old_add_node(la, node):
    i = node[0]
    if i == len(la) + 1:
        return la + (1,)
    return la[: i - 1] + (la[i - 1] + 1,) + la[i:]


def old_partners(la_tilde, p, i):
    res = (i - 1) % p
    return tuple(sorted((old_add_node(la_tilde, node) for node in pb.addable_nodes(la_tilde)
                         if pb.residue(node, p) == res), reverse=True))


def old_rows(p, occupied):
    rows = [[] for _ in range(p)]
    for m in sorted(occupied):
        rows[(m - 1) % p].append((m - 1) // p + 1)
    return tuple(map(tuple, rows))


def old_from_components(weight, components):
    beads = sorted(((w, r) for r, c in components.items() for w in c), reverse=True)
    if tuple(w for w, _ in beads) != _bead_weights(weight, len(beads)):
        raise ValueError(f"components {components} do not fit a weight-{weight} placement")
    return BeadNotation(weight, tuple(r for _, r in beads))


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# ---------------------------------------------------------------------------
# Equivalence, exhaustive over the partitions of n <= 20
# ---------------------------------------------------------------------------

def test_partition_matches_the_old_rule():
    malformed = [[1, 2], [3, 0, 2], [2, -1], [3.5], [True, True], (3.0,), ["3"], (2, 2, 0, 0)]
    for la in SMALL:
        for parts in (la, list(la), la + (0, 0), iter(la)):
            assert pb.partition(parts) == old_partition(la), parts
    for parts in malformed:
        assert outcome(pb.partition, parts) == outcome(old_partition, parts), parts


@pytest.mark.parametrize("p", PRIMES)
def test_node_kernels_match_the_old_rules(p):
    for la in SMALL:
        assert pb.is_p_regular(la, p) == old_is_p_regular(la, p), la
        assert pb.is_p_restricted(la, p) == old_is_p_restricted(la, p), la
        assert pb.normal_nodes(la, p) == old_normal_nodes(la, p), la
        for node in pb.removable_nodes(la):
            assert _without(la, node) == old_remove_node(la, node), (la, node)
            assert pb.remove_node(la, node) == old_remove_node(la, node), (la, node)
        for node in pb.addable_nodes(la):
            assert _with(la, node) == old_add_node(la, node), (la, node)
            assert pb.add_node(la, node) == old_add_node(la, node), (la, node)
        for i in range(1, p + 1):
            assert _partners(la, p, i) == old_partners(la, p, i), (la, i)


def assert_display_matches_the_old_rules(display):
    rows = old_rows(display.p, display.occupied)
    assert display.rows == rows
    assert display.counts() == tuple(map(len, rows))
    assert display.components() == tuple(map(old_component, rows))


@pytest.mark.parametrize("p", PRIMES)
def test_display_readers_match_the_old_rules(p):
    for la in SMALL:
        r = pb.default_bead_count(la, p)
        for beads in (r, r + 1, r + p):
            assert_display_matches_the_old_rules(AbacusDisplay.from_partition(la, p, beads))


def test_principal_block_displays_match_the_old_rules():
    p = 11
    for la in pb.enumerate_block(pb.principal_block(p)):
        display = AbacusDisplay.from_partition(la, p, 3 * p)
        assert_display_matches_the_old_rules(display)
        assert pb.to_3p(la, p) == old_from_components(3, dict(enumerate(display.components(), 1)))


@pytest.mark.parametrize("p", PRIMES)
def test_rim_hook_leg_sum_matches_the_old_walk(p):
    for la in SMALL:
        assert rim_hook_leg_sum(la, p) == old_rim_hook_leg_sum(la, p), la


def test_from_components_matches_the_old_rule():
    cases = [(3, {1: (2,)}), (2, {1: (2,), 2: (1,)}), (1, {}), (3, {4: (1, 1)}),
             (3, {1: (2,), 2: (1,), 3: (0,)}), (3, {2: (1, 1), 1: (1,)})]
    for weight in (1, 2, 3):
        for k in range(1, weight + 1):
            for runners in product(range(1, 8), repeat=k):
                cases.append((weight, BeadNotation(weight, runners).components()))
    for weight, comps in cases:
        assert (outcome(BeadNotation.from_components, weight, comps)
                == outcome(old_from_components, weight, comps)), comps


# ---------------------------------------------------------------------------
# The bead mask against the display it stands for
# ---------------------------------------------------------------------------

@given(partitions(max_n=40))
@settings(max_examples=150)
def test_the_mask_decodes_to_its_partition_and_reads_as_the_display(la):
    for p in (5, 7, 11):
        for r in range(len(la), len(la) + 2 * p + 1):
            mask = _mask(la, r)
            assert _decode(mask) == la, (la, r)
            assert mask == sum(1 << m - 1 for m in _betas(la, r)), (la, r)
            display = AbacusDisplay.from_partition(la, p, r)
            assert _counts(mask, p) == display.counts(), (la, p, r)
            assert _mask_weight(mask, p) == display.weight(), (la, p, r)
            assert _components(mask, p) == {j: c for j, c in enumerate(display.components(), 1) if c}


@pytest.mark.parametrize("p", [5, 7, 11])
def test_placements_round_trip_on_every_member(p):
    for la in pb.enumerate_block(pb.principal_block(p)):
        assert pb.from_3p(pb.to_3p(la, p), p) == la
        assert pb.decode_notation(pb.encode_notation(la, p, (3,) * p), p, (3,) * p) == la
    for i in range(1, p + 1):
        counts = counts_3p(p, i)
        for la in pb.enumerate_block(pb.restriction_block(p, i)):
            assert pb.decode_notation(pb.encode_notation(la, p, counts), p, counts) == la, (i, la)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def test_member_sweeps_retain_no_parked_tuples():
    p = 23
    members = pb.enumerate_block(pb.principal_block(p))
    assert len(members) == 2852

    def sweep():
        for la in members:
            pb.is_p_regular(la, p)
            pb.is_p_restricted(la, p)
            pb.loewy_length(la, p)
            pb.normal_nodes(la, p)
            pb.classify_3p(la, p)
            pb.from_3p(pb.to_3p(la, p), p)
            _is_jm_fayers(la, p)

    sweep()  # warm-up: the Loewy families' cache, and free lists at their working level
    tracemalloc.start()
    try:
        sweep()
        sweep()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A tuple parked on a free list is never returned to the allocator, so it counts as held.
    assert retained < 256 * 1024, f"{retained} bytes retained"
