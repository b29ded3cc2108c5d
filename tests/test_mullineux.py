import hashlib
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pblock as pb
from pblock.blocks import BeadNotation
from pblock.abacus import rim_hook_removals
from pblock.mullineux import (
    _add_p_rim,
    _good_node_sides,
    _mullineux,
    _symbol_rows,
    rim_hook_leg_sum,
    strip_p_rim,
)
from conftest import all_partitions_up_to, leg_sum_parities, partitions, regular_partitions

ROUND_TRIP_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def N3(*runners):
    return BeadNotation(3, runners)


# ---------------------------------------------------------------------------
# p-rim stripping
# ---------------------------------------------------------------------------

def rim_path(la):
    """Rim cells from (1, la_1) to the bottom-left, in walk order."""
    cells = []
    k = len(la)
    for i in range(1, k + 1):
        hi = la[i - 1]
        lo = max(la[i] if i < k else 0, 1)
        cells.extend((i, j) for j in range(hi, lo - 1, -1))
    return cells


def p_rim(la, p):
    """The cells stripped by one p-rim removal, walked one by one: the reference for strip_p_rim."""
    chosen = []
    need = p
    skipping_row = 0
    for i, j in rim_path(la):
        if i == skipping_row:
            continue
        chosen.append((i, j))
        need -= 1
        if need == 0:
            skipping_row = i
            need = p
    return chosen


def test_rim_path_order():
    assert rim_path((8, 6, 1)) == [
        (1, 8), (1, 7), (1, 6), (2, 6), (2, 5), (2, 4), (2, 3), (2, 2), (2, 1), (3, 1)]


def test_p_rim_skips_to_next_row_after_full_segment():
    # segment of five ends in row 2; the rest of row 2 is skipped
    assert p_rim((8, 6, 1), 5) == [(1, 8), (1, 7), (1, 6), (2, 6), (2, 5), (3, 1)]
    assert strip_p_rim((8, 6, 1), 5) == ((5, 4), 6, 3)
    assert strip_p_rim((5, 5, 5), 5) == ((4, 4, 2), 5, 3)


def test_strip_p_rim_matches_the_cell_walk_exhaustive():
    # strip_p_rim counts each row's cells by arithmetic; p_rim walks them one by one.
    for p in (2, 3, 5, 7):
        for la in all_partitions_up_to(22):
            if not la:
                continue
            rim = p_rim(la, p)
            per_row = Counter(i for i, _ in rim)
            stripped = pb.partition(part - per_row[i] for i, part in enumerate(la, start=1))
            assert strip_p_rim(la, p) == (stripped, len(rim), len(la)), (la, p)


def test_strip_p_rim_names_a_result_that_is_not_a_partition():
    with pytest.raises(ValueError, match=re.escape("(1, 1, 5) is not a partition: parts not weakly decreasing")):
        strip_p_rim((1, 1, 5), 5)


@pytest.mark.parametrize("la, reason", [
    ((3, 0), "non-positive part 0"),
    ((2, 3), "parts not weakly decreasing"),
    ((4, -1), "non-positive part -1"),
])
def test_strip_p_rim_rejects_input_that_is_not_a_partition(la, reason):
    # The segment bisection needs positive, weakly decreasing parts.
    with pytest.raises(ValueError, match=re.escape(f"{la} is not a partition: {reason}")):
        strip_p_rim(la, 5)


def test_symbol_worked_examples():
    for p in (5, 7, 11):
        la = pb.from_3p(N3(p, p - 1, p - 3), p)
        symbol = pb.mullineux_symbol(la, p)
        assert symbol.a == (p + 1, p, p - 1)
        assert symbol.r == (4, 3, 3)
    assert pb.mullineux_symbol((8, 6, 1), 5) == pb.MullineuxSymbol((6, 5, 4), (3, 2, 2))
    assert pb.mullineux_symbol((1,), 7) == pb.MullineuxSymbol((1,), (1,))


def test_symbol_rejects_singular():
    with pytest.raises(ValueError):
        pb.mullineux_symbol((1, 1, 1, 1, 1), 5)


def test_symbol_rows_weakly_decreasing_and_dominating():
    for la in all_partitions_up_to(16):
        if not pb.is_p_regular(la, 5):
            continue
        symbol = pb.mullineux_symbol(la, 5)
        assert all(a >= b for a, b in zip(symbol.a, symbol.a[1:]))
        assert all(a >= r for a, r in zip(symbol.a, symbol.r))


def test_symbol_reconstruction_exhaustive():
    for p in (5, 7, 11):
        for la in all_partitions_up_to(16):
            if pb.is_p_regular(la, p):
                assert pb.partition_from_symbol(pb.mullineux_symbol(la, p), p) == la


def test_add_p_rim_inverts_the_strip_exhaustive():
    # Every partition (singular ones too) comes back from its strip; every other
    # triple (mu, a, r) is rejected, because no partition strips to it.
    for p in (2, 3, 5, 7):
        strips = set()
        for la in all_partitions_up_to(18):
            if la:
                strip = strip_p_rim(la, p)
                assert _add_p_rim(*strip, p) == la, (la, p)
                strips.add(strip)
        for mu in all_partitions_up_to(10):
            for r in range(len(mu), len(mu) + 4):
                for a in range(1, min(3 * p + 1, 18 - sum(mu)) + 1):
                    if (mu, a, r) in strips:
                        assert strip_p_rim(_add_p_rim(mu, a, r, p), p) == (mu, a, r)
                    else:
                        with pytest.raises(ValueError):
                            _add_p_rim(mu, a, r, p)


@given(partitions(max_n=80).filter(bool), st.sampled_from([5, 7, 11, 23]))
@settings(max_examples=200)
def test_segment_bisection_matches_the_cell_walk(la, p):
    # Beyond the exhaustive range: several segments per rim, and segments spanning many rows.
    rim = p_rim(la, p)
    per_row = Counter(i for i, _ in rim)
    stripped = pb.partition(part - per_row[i] for i, part in enumerate(la, start=1))
    assert strip_p_rim(la, p) == (stripped, len(rim), len(la))
    assert _add_p_rim(*strip_p_rim(la, p), p) == la


@pytest.mark.parametrize("a, r", [((0,), (1,)), ((2,), (-1,)), ((2.0,), (1,)), ((True,), (True,))])
def test_symbol_entries_must_be_positive_integers(a, r):
    with pytest.raises(ValueError, match="entries of a Mullineux symbol must be positive integers"):
        pb.partition_from_symbol(pb.MullineuxSymbol(a, r), 5)


@given(partitions(max_n=93), st.sampled_from(ROUND_TRIP_PRIMES))
@settings(max_examples=150)
def test_symbol_reconstruction(la, p):
    if pb.is_p_regular(la, p):
        assert pb.partition_from_symbol(pb.mullineux_symbol(la, p), p) == la


@given(st.sampled_from(ROUND_TRIP_PRIMES).flatmap(
    lambda p: st.tuples(regular_partitions(p, max_n=93), st.just(p))))
@settings(max_examples=150)
def test_mullineux_is_an_involution(case):
    la, p = case
    assert pb.mullineux(pb.mullineux(la, p), p) == la


# ---------------------------------------------------------------------------
# the involution
# ---------------------------------------------------------------------------

def test_unchecked_image_matches_the_flipped_symbol():
    # _mullineux rebuilds from the stripped rows; the public symbol round trip is the reference.
    domain = list(all_partitions_up_to(20))
    for p in (3, 5, 7, 11):
        for la in domain:
            if pb.is_p_regular(la, p):
                symbol = pb.mullineux_symbol(la, p)
                flipped = tuple(a - r + (1 if a % p else 0) for a, r in zip(symbol.a, symbol.r))
                expected = pb.partition_from_symbol(pb.MullineuxSymbol(symbol.a, flipped), p)
                assert _mullineux(la, p) == expected, (la, p)


# SHA-256 of the lines "<la> -> <mullineux(la, p)>" over the sorted regular members of the
# principal block, recorded before the strip and its inverse found segments by bisection.
PRINCIPAL_IMAGE_DIGESTS = {
    11: (330, "b03d78c984ae8533a48dd57bf4f51d5b89fa26727ecf3dd1fa6eb44433dd4cab"),
    13: (520, "27ba713fc6a9faecb836be718c4b272c8a7ff2fdf1fd78ccef378582d823262b"),
}


@pytest.mark.parametrize("p", sorted(PRINCIPAL_IMAGE_DIGESTS))
def test_principal_block_images_match_the_recorded_digest(p):
    lines = [f"{la} -> {pb.mullineux(la, p)}\n"
             for la in sorted(pb.enumerate_block(pb.principal_block(p))) if pb.is_p_regular(la, p)]
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == PRINCIPAL_IMAGE_DIGESTS[p]


def test_mullineux_worked_examples():
    assert pb.mullineux((5, 4, 3, 2, 1), 5) == (7, 5, 2, 1)
    assert pb.mullineux(pb.from_3p(N3(5, 4, 2), 5), 5) == pb.from_3p(N3(3, 5), 5)
    for p in (7, 11):
        assert pb.mullineux(pb.from_3p(N3(p, p - 1, p - 3), p), p) == pb.from_3p(N3(6, 5, 3), p)


def test_mullineux_rejects_singular():
    with pytest.raises(ValueError):
        pb.mullineux((2, 2, 2, 2, 2), 5)


@pytest.mark.parametrize("not_prime", [4, 9, 1, 0, 5.0])
def test_mullineux_rejects_non_prime_p(not_prime):
    with pytest.raises(ValueError, match=f"p must be a prime, got {not_prime}"):
        pb.mullineux((5, 4), not_prime)
    with pytest.raises(ValueError, match=f"p must be a prime, got {not_prime}"):
        pb.mullineux_symbol((5, 4), not_prime)
    with pytest.raises(ValueError, match=f"p must be a prime, got {not_prime}"):
        pb.partition_from_symbol(pb.MullineuxSymbol((4,), (2,)), not_prime)


def test_mullineux_involution_small_exhaustive():
    for p in (5, 7):
        for la in all_partitions_up_to(14):
            if pb.is_p_regular(la, p):
                image = pb.mullineux(la, p)
                assert sum(image) == sum(la)
                assert pb.is_p_regular(image, p)
                assert pb.mullineux(image, p) == la


def test_second_layer_maps_to_third_layer():
    second = {(8, 6, 1), (6, 6, 1, 1, 1), (6, 4, 2, 2, 1),
              (5, 5, 5), (5, 5, 3, 1, 1), (5, 4, 4, 2)}
    third = {(5, 5, 4, 1), (7, 4, 2, 2), (6, 5, 2, 1, 1),
             (9, 6), (8, 5, 2), (7, 6, 1, 1)}
    assert {pb.mullineux(la, 5) for la in second} == third


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

def test_parity_examples():
    assert pb.parity((3, 1), 5) == 1  # a 5-core
    assert pb.parity((2, 2, 1, 1), 7) == 1  # a 7-core by size
    assert pb.parity((6, 4, 2), 5) == -1
    assert pb.parity((2, 1, 1, 1), 5) == -1  # one 5-hook, leg length 3
    assert pb.parity((), 5) == 1


def test_parity_conjugation_invariant_small():
    for p in (5, 7):
        for la in all_partitions_up_to(16):
            assert pb.parity(la, p) == pb.parity(pb.conjugate(la), p)


def test_leg_sum_matches_the_display_walk_exhaustive():
    # rim_hook_leg_sum moves bare beta-numbers; rim_hook_removals goes through
    # AbacusDisplay.push_up and leg_length, removing the topmost hand first as well.
    for p in (2, 3, 5, 7):
        for la in all_partitions_up_to(18):
            total, current = 0, la
            while removals := rim_hook_removals(current, p):
                current, leg = removals[0]
                total += leg
            assert rim_hook_leg_sum(la, p) == total, (la, p)


def test_parity_removal_order_independent_small():
    for la in all_partitions_up_to(14):
        assert leg_sum_parities(la, 5) == {rim_hook_leg_sum(la, 5) % 2}, la


def test_parity_flips_in_weight_three_block():
    for p in (5, 7):
        for la in pb.enumerate_block(pb.principal_block(p)):
            if pb.is_p_regular(la, p):
                assert pb.parity(pb.mullineux(la, p), p) != pb.parity(la, p)


# ---------------------------------------------------------------------------
# good-node compatibility
# ---------------------------------------------------------------------------

def test_good_node_compatibility_trivial():
    assert pb.mullineux((1,), 5) == (1,)
    assert pb.check_good_node_compatibility((1,), 5)


def test_good_node_residues_negate_for_staircase():
    la, image = (5, 4, 3, 2, 1), (7, 5, 2, 1)
    res_la = {pb.residue(node, 5) for node in pb.good_nodes(la, 5)}
    res_image = {pb.residue(node, 5) for node in pb.good_nodes(image, 5)}
    assert {(-r) % 5 for r in res_la} <= res_image
    assert pb.check_good_node_compatibility(la, 5)


def test_good_node_compatibility_on_block():
    for p in (5, 7):
        for la in pb.enumerate_block(pb.principal_block(p)):
            if pb.is_p_regular(la, p):
                assert pb.check_good_node_compatibility(la, p)


def good_node_rule(la, image, p):
    """The rule from ``la``'s side, one rebuilt image per good node: the reference for the kernel.

    Every good node A of ``la`` whose removal stays p-regular needs a good node B of ``image``
    with res B = -res A and _mullineux(la - A) == image - B.
    """
    mirrors = {pb.residue(node, p): node for node in pb.good_nodes(image, p)}
    for node in pb.good_nodes(la, p):
        smaller = pb.remove_node(la, node)
        if not pb.is_p_regular(smaller, p):
            continue
        mirror = mirrors.get(-pb.residue(node, p) % p)
        if mirror is None or _mullineux(smaller, p) != pb.remove_node(image, mirror):
            return False
    return True


@pytest.mark.parametrize("p", [5, 7])
def test_the_pair_kernel_matches_the_rebuilt_images(p):
    # Each regular partition against its image, and against the next regular partition of its
    # size, which is not its image: the kernel answers both sides as the reference does.
    failed_sides = 0
    for n in range(17):
        regular = [la for la in pb.partitions_of(n) if pb.is_p_regular(la, p)]
        for la, other in zip(regular, regular[1:] + regular[:1]):
            for image in {pb.mullineux(la, p), other}:
                expected = (good_node_rule(la, image, p), good_node_rule(image, la, p))
                assert _good_node_sides(la, image, p) == expected, (la, image)
                failed_sides += expected.count(False)
    assert failed_sides > 1000


@pytest.mark.parametrize("p", [5, 7])
def test_the_strip_chain_tells_regular_partitions_apart(p):
    # The pair kernel compares strip chains instead of partitions: that needs this.
    seen = {}
    for la in all_partitions_up_to(22):
        if pb.is_p_regular(la, p):
            assert seen.setdefault(_symbol_rows(la, p), la) == la
    assert len(seen) > 3000
