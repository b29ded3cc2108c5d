from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pblock as pb
from pblock.blocks import (
    BeadNotation,
    _theta,
    counts_3p,
    counts_223,
    in_block,
    parse_notation,
    require_block_prime,
)
from pblock.verify import _loewy2_families
from conftest import all_partitions_up_to


def N3(*runners):
    return BeadNotation(3, runners)


def N2(*runners):
    return BeadNotation(2, runners)


# ---------------------------------------------------------------------------
# notation
# ---------------------------------------------------------------------------

def test_notation_canonical_forms():
    assert N3(1, 3, 5).runners == (5, 3, 1)  # equal-weight beads sort descending
    assert N3(3, 5).runners == (3, 5)        # weight-2 then weight-1 bead: order kept
    assert N2(1, 4).runners == (4, 1)
    assert str(N3(5, 3, 1)) == "<5,3,1>"
    assert parse_notation("<3,5>", 3) == N3(3, 5)
    with pytest.raises(ValueError):
        parse_notation("5,3", 3)
    with pytest.raises(ValueError):
        BeadNotation(3, (1, 2, 3, 4))


def test_notation_components_roundtrip():
    assert N3(4, 2).components() == {4: (2,), 2: (1,)}
    assert N3(4, 4).components() == {4: (2, 1)}
    assert N3(4, 4, 2).components() == {4: (1, 1), 2: (1,)}
    for weight in (1, 2, 3):
        for k in range(1, weight + 1):
            for runners in product(range(1, 10), repeat=k):
                nota = BeadNotation(weight, runners)
                comps = nota.components()
                assert sum(map(sum, comps.values())) == weight
                assert BeadNotation.from_components(weight, comps) == nota
    for weight, comps in ((3, {1: (2,)}), (2, {1: (2,), 2: (1,)}), (1, {}), (3, {4: (1, 1)}),
                          (3, {1: (2,), 2: (1,), 3: (0,)})):
        with pytest.raises(ValueError, match="do not fit"):
            BeadNotation.from_components(weight, comps)


def test_decode_worked_examples():
    assert pb.from_3p(N3(6, 3), 7) == (13, 4, 2, 1, 1)
    assert pb.from_3p(N3(5, 3, 1), 5) == (5, 4, 3, 2, 1)
    assert pb.from_3p(N3(3, 5), 5) == (8, 6, 1)
    for p, i in ((5, 2), (7, 4)):
        assert pb.from_3p(N3(i, i), p) == (p + i,) + (1,) * (2 * p - i)
    assert pb.to_3p((5, 4, 3, 2, 1), 5) == N3(5, 3, 1)
    with pytest.raises(ValueError):
        pb.to_3p((6, 4, 2), 5)  # wrong block
    with pytest.raises(ValueError):
        pb.from_3p(N3(9, 3), 7)  # runner out of range


def test_notation_roundtrip_whole_block():
    for p in (5, 7):
        for la in pb.enumerate_block(pb.principal_block(p)):
            assert pb.from_3p(pb.to_3p(la, p), p) == la


PRIMES_5_TO_31 = [5, 7, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def placements(draw, weight):
    """A prime p in 5..31 and a weight-``weight`` placement on p runners."""
    p = draw(st.sampled_from(PRIMES_5_TO_31))
    k = draw(st.integers(min_value=1, max_value=weight))
    runners = draw(st.lists(st.integers(min_value=1, max_value=p), min_size=k, max_size=k))
    return p, BeadNotation(weight, tuple(runners))


@given(placements(3))
@settings(max_examples=200)
def test_from_3p_then_to_3p_is_identity(case):
    p, nota = case
    assert pb.to_3p(pb.from_3p(nota, p), p) == nota


@given(placements(2), st.data())
@settings(max_examples=200)
def test_decode_then_encode_is_identity_on_weight_2(case, data):
    p, nota = case
    counts = counts_3p(p, data.draw(st.integers(min_value=2, max_value=p)))
    assert pb.encode_notation(pb.decode_notation(nota, p, counts), p, counts) == nota


def test_defect2_counts_match_core_displays():
    for p in (5, 7, 11):
        for i in range(2, p + 1):
            core = pb.defect2_block(p, i).core
            assert pb.p_core(core, p) == core
            # counts_3p(p, i) on 3p beads is checked for every i by the loop below.
            assert counts_223(p, i) == pb.AbacusDisplay.from_partition(core, p, 3 * p - i + 1).counts()
        # _theta's B_1..B_p postcondition: the counts of each core on the 3p-bead display.
        for i in range(1, p + 1):
            core = pb.restriction_block(p, i).core
            assert counts_3p(p, i) == pb.AbacusDisplay.from_partition(core, p, 3 * p).counts(), (p, i)


def test_require_block_prime():
    for bad in (4, 9, 3, 2):
        with pytest.raises(ValueError):
            require_block_prime(bad)
    require_block_prime(11)


@pytest.mark.parametrize("entry", [pb.to_3p, pb.loewy_length, pb.classify_3p])
def test_block_entry_points_reject_a_float_prime(entry):
    with pytest.raises(ValueError, match="p must be a prime at least 5, got 5.0"):
        entry((5, 4, 3, 2, 1), 5.0)


# ---------------------------------------------------------------------------
# block enumeration
# ---------------------------------------------------------------------------

def test_enumerate_principal_block_members():
    block = pb.enumerate_block(pb.principal_block(5))
    for member in [(15,), (1,) * 15, (5, 4, 3, 2, 1), (8, 6, 1), (5, 5, 4, 1)]:
        assert member in block
    assert block == tuple(sorted(block, reverse=True))


def test_enumerate_matches_filter_oracle():
    # The principal block and every B_i, order included, against the core filter.
    for p in (5, 7):
        for label in [pb.principal_block(p)] + [pb.restriction_block(p, i) for i in range(1, p + 1)]:
            brute = [la for la in pb.partitions_of(label.n) if pb.p_core(la, p) == label.core]
            assert pb.enumerate_block(label) == tuple(sorted(brute, reverse=True)), label


def test_enumerate_matches_filter_oracle_off_the_empty_core():
    # A core whose display has a runner with fewer beads than the weight grows
    # the bead count before any bead moves.
    assert pb.AbacusDisplay.from_partition((2, 1), 5, 5).counts() == (1, 2, 1, 0, 1)
    assert len(pb.enumerate_block(pb.BlockLabel(5, (2, 1), 3))) == 65
    for p in (5, 7):
        by_core = {}
        for la in all_partitions_up_to(22):
            by_core.setdefault((sum(la), pb.p_core(la, p)), []).append(la)
        grown = 0
        for core, w in product({core for _, core in by_core}, range(4)):
            label = pb.BlockLabel(p, core, w)
            if label.n <= 22:
                brute = tuple(sorted(by_core[label.n, core], reverse=True))
                assert pb.enumerate_block(label) == brute, label
                display = pb.AbacusDisplay.from_partition(core, p, pb.default_bead_count(core, p))
                grown += min(display.counts()) < w
        assert grown >= 200, grown  # 208 blocks at p = 5, 297 at p = 7


def test_weight_zero_block_is_its_core():
    label = pb.BlockLabel(5, (2, 1), 0)
    assert pb.enumerate_block(label) == ((2, 1),)


# ---------------------------------------------------------------------------
# classifiers and node counts
# ---------------------------------------------------------------------------

def test_classify_spot_values():
    p = 7
    flags = pb.classify_3p(pb.from_3p(N3(4, 4), p), p)
    assert not flags["p_regular"] and not flags["p_restricted"] and flags["hook"]
    flags = pb.classify_3p(pb.from_3p(N3(4, 4), p), p)
    half = (p + 1) // 2
    assert pb.classify_3p(pb.from_3p(N3(half, half), p), p)["self_conjugate"]
    flags = pb.classify_3p(pb.from_3p(N3(p, p - 1, p - 2), p), p)
    assert flags["p_regular"] and not flags["p_restricted"]


def test_removable_residues_distinct_on_block():
    for p in (5, 7, 11):
        for la in pb.enumerate_block(pb.principal_block(p)):
            if pb.is_p_regular(la, p):
                residues = [pb.residue(node, p) for node in pb.removable_nodes(la)]
                assert len(residues) == len(set(residues))
                assert pb.normal_nodes(la, p) == pb.good_nodes(la, p)


def test_tau_worked_examples():
    assert pb.tau((8, 6, 1)) == 3 and pb.tau_p((8, 6, 1), 5) == 2
    assert pb.tau((5, 4, 3, 2, 1)) == 5 and pb.tau_p((5, 4, 3, 2, 1), 5) == 2
    for p in (5, 7):
        la = pb.from_3p(N3(1, p), p)
        assert pb.tau(la) == 2 and pb.tau_p(la, p) == 1


# ---------------------------------------------------------------------------
# restriction machinery
# ---------------------------------------------------------------------------

def test_theta_worked_entries():
    p = 7
    la = pb.from_3p(N3(4, 1), p)  # i = 4
    assert pb.theta(la, p, 2) == pb.decode_notation(N2(3), p, counts_223(p, 2))
    assert pb.theta(la, p, 4) == pb.decode_notation(N2(p, p - 2), p, counts_223(p, 4))
    assert pb.theta(la, p, 5) == pb.decode_notation(N2(p, p - 3), p, counts_223(p, 5))


def test_theta_requires_removable_bead():
    p = 5
    la = pb.from_3p(N3(5), 5)  # (15): only one removable node
    with pytest.raises(ValueError):
        pb.theta(la, p, 2)


def test_theta_lands_in_the_right_block():
    for p in (5, 7):
        for la in pb.enumerate_block(pb.principal_block(p)):
            display = pb.AbacusDisplay.from_partition(la, p, 3 * p)
            for m in display.removable_beads():
                i = display.runner(m)
                assert in_block(pb.theta(la, p, i), pb.restriction_block(p, i))


def theta_by_display(display, i):
    """Restriction as the display ops compute it, with the core decoded: the reference for _theta."""
    beads = [m for m in display.beads_on_runner(i) if m in display.removable_beads()]
    if not beads:
        raise ValueError(f"{display.to_partition()} has no removable bead on runner {i}")
    assert len(beads) == 1
    pushed = display.push_left(beads[0])
    assert pushed.core() == pb.restriction_block(display.p, i).core
    return pushed.to_partition()


@pytest.mark.parametrize("p", [5, 7, 11])
def test_theta_moves_the_bead_the_display_ops_move(p):
    for la in pb.enumerate_block(pb.principal_block(p)):
        display = pb.AbacusDisplay.from_partition(la, p, 3 * p)
        for i in range(1, p + 1):
            try:
                expected = theta_by_display(display, i)
            except ValueError:
                with pytest.raises(ValueError, match=f"no removable bead on runner {i}"):
                    _theta(la, p, i)
            else:
                assert _theta(la, p, i) == expected, (la, i)


@pytest.mark.parametrize("p", [5, 7])
def test_principal_membership_matches_in_block(p):
    """The runner-count membership rule accepts exactly what the p-core predicate accepts."""
    block = pb.principal_block(p)
    members = 0
    for la in pb.partitions_of(3 * p):
        member = in_block(la, block)
        members += member
        for classifier in (pb.to_3p, pb.classify_3p):
            if member:
                classifier(la, p)
            else:
                with pytest.raises(ValueError, match=f"is not in the principal block for p={p}"):
                    classifier(la, p)
    assert members == len(pb.enumerate_block(block))


def test_principal_membership_errors():
    assert pb.p_core((13, 2), 5) == (3, 2)
    for la in ((13, 2), (5, 4, 3, 2)):  # non-empty core; a partition of 14
        for call in (pb.to_3p, pb.classify_3p, pb.loewy_length):
            with pytest.raises(ValueError, match="is not in the principal block for p=5"):
                call(la, 5)
        for call in (pb.theta, pb.in_lambda_set):
            with pytest.raises(ValueError, match="is not in the principal block for p=5"):
                call(la, 5, 1)
    for call in (pb.to_3p, pb.classify_3p, pb.loewy_length):
        with pytest.raises(ValueError, match="p must be a prime at least 5, got 9"):
            call((9,) * 3, 9)


def test_partners_and_sigma():
    # Nakayama: an added (i-1)-node turns B_i's residue content into the
    # principal block's, so every partner lies in the principal block.
    for p in (5, 7, 11):
        block = set(pb.enumerate_block(pb.principal_block(p)))
        for i in range(1, p + 1):
            for la_tilde in pb.enumerate_block(pb.restriction_block(p, i)):
                found = pb.partners(la_tilde, p, i)
                assert len(found) == (3 if i == 1 else 2), (la_tilde, i)
                assert block.issuperset(found), (la_tilde, i)
    p = 5
    assert pb.sigma_partner(pb.from_3p(N3(p, p - 1), p), p, p) == pb.from_3p(N3(p - 1, p), p)
    with pytest.raises(ValueError):
        pb.sigma_partner(pb.from_3p(N3(p - 1, p), p), p, p)  # the smaller partner


def test_lambda_membership():
    for p in (5, 7):
        la = pb.from_3p(N3(p, p - 1, p - 2), p)
        membership = [i for i in range(1, p + 1) if pb.in_lambda_set(la, p, i)]
        assert membership == [p - 2]
    la = pb.from_3p(N3(4, 2, 1), 7)
    assert [i for i in range(1, 8) if pb.in_lambda_set(la, 7, i)] == [4]
    with pytest.raises(ValueError):
        pb.in_lambda_set((8,) + (1,) * 7, 5, 1)  # 5-singular


@pytest.mark.parametrize("runner", [0, -1, 6, 2.0])
def test_lambda_membership_rejects_runners_outside_1_to_p(runner):
    with pytest.raises(ValueError, match=f"runner {runner} out of range for p=5"):
        pb.in_lambda_set((5, 4, 3, 2, 1), 5, runner)


@pytest.mark.parametrize("runner", [0, -1, 6, 2.0])
def test_theta_rejects_runners_outside_1_to_p(runner):
    with pytest.raises(ValueError, match=f"runner {runner} out of range for p=5"):
        pb.theta((5, 4, 3, 2, 1), 5, runner)


def test_regular_restricted_partitions_restrict_somewhere():
    for p in (5, 7):
        exceptional = pb.from_3p(N3(1, 2), p)
        for la in pb.enumerate_block(pb.principal_block(p)):
            flags = pb.classify_3p(la, p)
            if flags["p_regular"] and flags["p_restricted"] and la != exceptional:
                assert any(pb.in_lambda_set(la, p, i) for i in range(2, p + 1))


def test_irreducible_sets_match_lists():
    p = 5
    assert set(pb.irreducible_set_X(p, 2)) == {N2(2, 2), N2(2), N2(1), N2(2, 1)}
    assert set(pb.irreducible_set_X(p, p)) == {N2(p, p), N2(p, p - 1), N2(p - 1), N2(p - 1, p - 1)}
    for i in range(3, p):
        assert set(pb.irreducible_set_X(p, i)) == {N2(i, i), N2(i - 1), N2(i, i - 1)}


# ---------------------------------------------------------------------------
# Loewy classifier
# ---------------------------------------------------------------------------

def test_loewy_spot_values():
    assert pb.loewy_length((15,), 5) == 1
    assert pb.loewy_length((1,) * 15, 5) == 1
    assert pb.loewy_length((5, 4, 3, 2, 1), 5) == 4
    for p in (5, 7):
        assert pb.loewy_length(pb.from_3p(N3(p, p - 1, p - 2), p), p) == 3
    length, reason = pb.loewy_length_detail(pb.from_3p(N3(3, 3), 5), 5)
    assert length == 2 and "double-repeat" in reason


def test_loewy_families_disjoint_and_sized():
    for p in (5, 7, 11):
        families = _loewy2_families(p)
        union = set()
        total = 0
        for members in families.values():
            total += len(members)
            union |= members
        assert len(union) == total == 3 * p + 2


def test_loewy_classes_partition_block():
    for p in (5, 7):
        counts = {1: 0, 2: 0, 3: 0, 4: 0}
        for la in pb.enumerate_block(pb.principal_block(p)):
            counts[pb.loewy_length(la, p)] += 1
        assert counts[1] == 2
        assert counts[2] == 3 * p + 2
        assert sum(counts.values()) == len(pb.enumerate_block(pb.principal_block(p)))
