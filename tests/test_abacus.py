from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pblock as pb
from pblock.abacus import AbacusDisplay, _is_jm_fayers, _moved, _p_weight, _pushed_up
from pblock.hooks import _is_jm_direct
from conftest import all_partitions_up_to, partitions


# ---------------------------------------------------------------------------
# Diagram-level rim-hook oracle, independent of beta-numbers
# ---------------------------------------------------------------------------

def rim_cells_in_walk_order(la):
    cell_set = {(i + 1, j + 1) for i, part in enumerate(la) for j in range(part)}
    rim = [c for c in cell_set if (c[0] + 1, c[1] + 1) not in cell_set]
    return sorted(rim, key=lambda c: (c[0], -c[1]))


def rim_walk_removals(la, p):
    """Remove p consecutive rim cells starting at a row end, keep the valid ones."""
    cell_set = {(i + 1, j + 1) for i, part in enumerate(la) for j in range(part)}
    walk = rim_cells_in_walk_order(la)
    out = []
    for start, cell in enumerate(walk):
        if cell[1] != la[cell[0] - 1]:
            continue  # hooks hang off the last cell of a row
        segment = walk[start : start + p]
        if len(segment) < p:
            continue
        remaining = cell_set - set(segment)
        lengths = Counter(i for i, _ in remaining)
        shape_ok = all((i, j - 1) in remaining for i, j in remaining if j > 1)
        rows = sorted(lengths)
        shape_ok = shape_ok and rows == list(range(1, len(rows) + 1))
        shape_ok = shape_ok and all(lengths[i] >= lengths[i + 1] for i in rows[:-1])
        if shape_ok:
            shape = tuple(lengths[i] for i in rows)
            out.append((shape, len({i for i, _ in segment}) - 1))
    return out


# ---------------------------------------------------------------------------
# displays
# ---------------------------------------------------------------------------

def test_from_partition_worked_example():
    display = AbacusDisplay.from_partition((7, 7, 2, 2, 1), 5, 15)
    assert display.occupied == frozenset({22, 21, 15, 14, 12} | set(range(1, 11)))
    assert display.removable_beads() == [12, 14, 21]
    assert display.rim_hook_beads() == [21, 22]


def test_empty_partition_display():
    display = AbacusDisplay.from_partition((), 5, 10)
    assert display.occupied == frozenset(range(1, 11))
    assert display.removable_beads() == []
    assert display.rim_hook_beads() == []


def test_bead_count_too_small_rejected():
    with pytest.raises(ValueError):
        AbacusDisplay.from_partition((2, 1, 1), 5, 2)


@pytest.mark.parametrize("bad", [(3, 5), (5, 6), (3, 0, 1), (2, -1), (True, True), (3.5,),
                                 (3.0,)])
def test_non_partitions_rejected(bad):
    with pytest.raises(ValueError, match="is not a partition"):
        AbacusDisplay.from_partition(bad, 5, 5)
    # Warm answers for (1, 1) == (True, True) and (3,) == (3.0,) must not leak.
    checks = (pb.p_core, pb.is_jm_fayers, pb.is_jm_direct, pb.mullineux_symbol, pb.mullineux)
    for check in checks:
        for warm in ((1, 1), (3,)):
            check(warm, 5)
    for check in checks:
        with pytest.raises(ValueError, match="is not a partition"):
            check(bad, 5)


def test_trailing_zeros_accepted_and_dropped():
    for check in (pb.p_core, pb.is_jm_fayers, pb.is_jm_direct, pb.mullineux_symbol,
                  pb.mullineux):
        assert check((3, 0, 0), 5) == check((3,), 5), check
    assert AbacusDisplay.from_partition((3, 0), 5, 5) == AbacusDisplay.from_partition((3,), 5, 5)


@given(partitions(), st.sampled_from([2, 3, 5, 7]), st.integers(min_value=0, max_value=9))
def test_display_roundtrip(la, p, extra):
    display = AbacusDisplay.from_partition(la, p, len(la) + extra)
    assert display.to_partition() == la


def test_bead_moves_are_value_ops():
    display = AbacusDisplay.from_partition((7, 7, 2, 2, 1), 5, 15)
    moved = display.push_left(21)
    assert 21 in display.occupied and 20 in moved.occupied
    with pytest.raises(ValueError):
        display.push_left(22)  # 21 occupied
    with pytest.raises(ValueError):
        display.push_up(12)  # 7 occupied


def from_runners(p, counts, components):
    """The display with ``counts[j-1]`` beads on runner j, displaced by ``components[j-1]``."""
    moves = [(j, kappa) for j, kappa in enumerate(components, start=1) if kappa]
    mask = _moved(p, counts, _pushed_up(p, counts), moves)
    occupied = frozenset(m for m in range(1, mask.bit_length() + 1) if mask >> m - 1 & 1)
    return AbacusDisplay(p, sum(counts), occupied)


def test_partition_from_runners_skips_the_display():
    counts = (4, 2, 3, 3, 3)
    for j in range(5):
        for kappa in [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]:
            comps = [()] * 5
            comps[j] = kappa
            if len(kappa) > counts[j]:
                for build in (from_runners, AbacusDisplay.partition_from_runners):
                    with pytest.raises(ValueError, match="needs more than"):
                        build(5, counts, comps)
                continue
            display = from_runners(5, counts, comps)
            assert AbacusDisplay.partition_from_runners(5, counts, comps) == display.to_partition()
            assert display.components()[j] == kappa
    for build in (from_runners, AbacusDisplay.partition_from_runners):
        with pytest.raises(ValueError, match="expected 15 beads, got 14"):
            build(5, counts, [(0, 1), (), (), (), ()])  # a non-partition component collides


def test_partition_from_runners_needs_one_component_per_runner():
    with pytest.raises(ValueError, match="5 runner counts but 4 components"):
        AbacusDisplay.partition_from_runners(5, (3,) * 5, [(1,), (), (), ()])


# ---------------------------------------------------------------------------
# cores, weights, rim hooks
# ---------------------------------------------------------------------------

def test_core_weight_worked_examples():
    assert pb.p_core((6, 4, 2), 5) == (1, 1)
    assert pb.p_weight((6, 4, 2), 5) == 2
    assert pb.p_core((7, 7, 2, 2, 1), 5) == (2, 1, 1)
    assert pb.p_weight((7, 7, 2, 2, 1), 5) == 3
    core = (2, 2, 1)
    assert pb.p_core(core, 5) == core and pb.p_weight(core, 5) == 0


def test_weight_reads_the_runner_rows():
    # weight() sums rows off the display; the decoded core gives the same number.
    for p in (5, 7):
        for la in all_partitions_up_to(20):
            display = AbacusDisplay.from_partition(la, p, pb.default_bead_count(la, p))
            assert p * display.weight() == sum(la) - sum(display.core()), (la, p)
    for la in pb.enumerate_block(pb.principal_block(11)):
        display = AbacusDisplay.from_partition(la, 11, 33)
        assert display.weight() == 3 and display.core() == ()


def test_unchecked_weight_matches_the_display_weight():
    # _p_weight places only the part beads; the display it replaces is the reference.
    domain = list(all_partitions_up_to(20))
    for p in (2, 3, 5, 7, 11):
        for la in domain:
            display = AbacusDisplay.from_partition(la, p, pb.default_bead_count(la, p))
            assert _p_weight(la, p) == display.weight(), (la, p)


@pytest.mark.parametrize("entry", [pb.p_core, pb.p_weight, pb.p_quotient, pb.rim_hook_removals,
                                   pb.parity])
@pytest.mark.parametrize("p", [5.0, 7.0])
def test_abacus_entry_points_reject_a_float_p(entry, p):
    with pytest.raises(ValueError, match=f"p must be an integer at least 2, got {p}"):
        entry((3, 1), p)


def test_rim_hook_removals_worked_examples():
    assert len(pb.rim_hook_removals((7, 7, 2, 2, 1), 5)) == 2
    first = pb.rim_hook_removals((6, 4, 2), 5)[0]
    assert first[1] == 1  # topmost hand strips a two-row hook
    assert pb.rim_hook_removals((1, 1), 5) == []


def test_rim_hook_removals_match_diagram_walk_exhaustive():
    for p in (3, 5, 7):
        for la in all_partitions_up_to(16):
            assert sorted(pb.rim_hook_removals(la, p)) == sorted(rim_walk_removals(la, p))


@given(partitions(max_n=30), st.sampled_from([3, 5, 7]))
@settings(max_examples=120)
def test_rim_hook_removals_match_diagram_walk(la, p):
    assert sorted(pb.rim_hook_removals(la, p)) == sorted(rim_walk_removals(la, p))


def test_core_by_repeated_diagram_stripping():
    for la in all_partitions_up_to(14):
        current = la
        weight = 0
        while True:
            removals = rim_walk_removals(current, 5)
            if not removals:
                break
            current = removals[0][0]
            weight += 1
        assert current == pb.p_core(la, 5)
        assert weight == pb.p_weight(la, 5)


# ---------------------------------------------------------------------------
# quotients and pyramids
# ---------------------------------------------------------------------------

def test_quotient_worked_example():
    quotient = pb.p_quotient((7, 7, 2, 2, 1), 5, 15)
    assert quotient.components == ((2,), (1,), (), (), ())
    reordered, pyramid = pb.reordered_quotient((7, 7, 2, 2, 1), 5, 15)
    assert pyramid.q == (13, 16, 19, 20, 22)
    assert pyramid.runner_labels() == (2, 5, 1, 3, 4)
    assert pyramid.sigma == (3, 1, 4, 5, 2)
    assert reordered.components == ((), (2,), (), (), (1,))
    assert pyramid.nonzero_entries() == {(1, 3): 1, (1, 4): 1, (1, 5): 1, (2, 5): 1}


def test_quotient_requires_multiple_of_p():
    with pytest.raises(ValueError):
        pb.p_quotient((3, 1), 5, 7)
    with pytest.raises(ValueError):
        pb.reordered_quotient((3, 1), 5, 7)


def test_principal_block_pyramid_is_flat():
    p = 5
    for la in pb.enumerate_block(pb.principal_block(p)):
        reordered, pyramid = pb.reordered_quotient(la, p, 3 * p)
        assert pyramid.q == tuple(3 * p + i for i in range(1, p + 1))
        assert pyramid.sigma == tuple(range(1, p + 1))
        assert pyramid.nonzero_entries() == {}
        assert reordered.components == pb.p_quotient(la, p, 3 * p).components


def test_defect2_b2_pyramid():
    p = 5
    la = pb.enumerate_block(pb.defect2_block(p, 2))[0]
    _, pyramid = pb.reordered_quotient(la, p, 3 * p)
    assert pyramid.q == (2 * p + 2,) + tuple(3 * p + k + 1 for k in range(2, p)) + (4 * p + 1,)
    assert all(pyramid.entry(1, ell) == 1 for ell in range(2, p + 1))
    assert all(pyramid.entry(k, ell) == 0
               for k in range(2, p) for ell in range(k + 1, p + 1))
    assert pyramid.runner_labels() == (p,) + tuple(range(1, p))


def test_quotient_weight_sum():
    for la in all_partitions_up_to(16):
        for p in (3, 5):
            assert pb.p_quotient(la, p).total() == pb.p_weight(la, p)


def test_representation_independence_under_extra_beads():
    for p in (5, 7):
        for la in all_partitions_up_to(16):
            r = pb.default_bead_count(la, p)
            assert pb.p_quotient(la, p, r).components == pb.p_quotient(la, p, r + p).components
            small = AbacusDisplay.from_partition(la, p, r).core()
            big = AbacusDisplay.from_partition(la, p, r + p).core()
            assert small == big == pb.p_core(la, p)


# ---------------------------------------------------------------------------
# bead/node correspondences
# ---------------------------------------------------------------------------

def test_bead_pushes_track_nodes_and_hooks_exhaustive():
    for p in (5, 7):
        for la in all_partitions_up_to(14):
            display = AbacusDisplay.from_partition(la, p, pb.default_bead_count(la, p))
            for m in display.removable_beads():
                node = display.bead_node(m)
                assert display.push_left(m).to_partition() == pb.remove_node(la, node)
            via_beads = sorted(display.push_up(m).to_partition()
                               for m in display.rim_hook_beads())
            assert via_beads == sorted(shape for shape, _ in pb.rim_hook_removals(la, p))


def test_normal_beads_worked_examples():
    display = AbacusDisplay.from_partition((8, 6, 1), 5, 15)
    assert display.removable_beads() == [14, 20, 23]
    assert display.normal_beads() == [20, 23]
    display = AbacusDisplay.from_partition((5, 4, 3, 2, 1), 5, 15)
    assert display.normal_beads() == [18, 20]


def test_normal_beads_match_normal_nodes_exhaustive():
    cases = [(la, p, pb.default_bead_count(la, p))
             for p in (5, 7) for la in all_partitions_up_to(14)]
    # The 3p-bead displays of the principal block at p = 11 (n = 33).
    cases += [(la, 11, 33) for la in pb.enumerate_block(pb.principal_block(11))]
    for la, p, r in cases:
        display = AbacusDisplay.from_partition(la, p, r)
        from_beads = {display.bead_node(m) for m in display.normal_beads()}
        assert from_beads == set(pb.normal_nodes(la, p))


# ---------------------------------------------------------------------------
# irreducibility test
# ---------------------------------------------------------------------------

def test_jm_fayers_examples():
    for p in (5, 7):
        block = pb.enumerate_block(pb.principal_block(p))
        assert [la for la in block if pb.is_jm_fayers(la, p)] == [(3 * p,), (1,) * (3 * p)]
    for la in pb.partitions_of(4):
        assert pb.is_jm_fayers(la, 5)
    with pytest.raises(ValueError):
        pb.is_jm_fayers((3, 1), 4)
    for oracle in (pb.is_jm_fayers, pb.is_jm_direct):
        for not_odd_prime in (4, 9, 15, 1, 2, 5.0):
            with pytest.raises(ValueError, match="needs an odd prime"):
                oracle((5, 4), not_odd_prime)


def test_jm_oracles_agree_small():
    for p in (3, 5, 7):
        for la in all_partitions_up_to(16):
            assert pb.is_jm_fayers(la, p) == pb.is_jm_direct(la, p)


@pytest.mark.parametrize("p, passing", [(3, 475), (5, 789), (7, 1326), (11, 2777), (13, 3441),
                                        (17, 4223)])
def test_jm_oracles_pass_the_recorded_number_of_partitions(p, passing):
    """Each oracle's own verdicts, so that a fault both share still shows."""
    domain = list(all_partitions_up_to(22))
    assert len(domain) == 4508
    assert sum(pb.is_jm_direct(la, p) for la in domain) == passing
    assert sum(pb.is_jm_fayers(la, p) for la in domain) == passing


def test_unchecked_oracles_match_the_public_ones():
    domain = list(all_partitions_up_to(20))
    for p in (3, 5, 7, 11, 13, 23):
        for la in domain:
            assert _is_jm_direct(la, p) == pb.is_jm_direct(la, p), (la, p)
            assert _is_jm_fayers(la, p) == pb.is_jm_fayers(la, p), (la, p)


def is_jm_by_literal_quotient_rule(la, p):
    """The quotient rule read off the public reordered quotient, every pair 1 <= k < ell <= p."""
    if not la:
        return True
    reordered, pyramid = pb.reordered_quotient(la, p)
    mu = reordered.components
    if any(mu[1:-1]):
        return False
    if not all((mu[k - 1][0] if mu[k - 1] else 0) + len(mu[ell - 1]) <= pyramid.entry(k, ell) + 1
               for k in range(1, p) for ell in range(k + 1, p + 1)):
        return False
    return (pb.is_p_restricted(mu[0], p) and is_jm_by_literal_quotient_rule(mu[0], p)
            and pb.is_p_regular(mu[-1], p) and is_jm_by_literal_quotient_rule(mu[-1], p))


def test_three_pyramid_pairs_decide_the_quotient_test():
    """_is_jm_fayers tests only B(1, 2), B(p-1, p) and B(1, p); the literal rule tests all pairs."""
    domain = [(la, p) for la in all_partitions_up_to(20) for p in (3, 5, 7, 11, 13)]
    domain += [(la, p) for la in pb.partitions_of(30) for p in (3, 5)]
    verdicts = Counter()
    for la, p in domain:
        verdict = is_jm_by_literal_quotient_rule(la, p)
        assert _is_jm_fayers(la, p) == verdict, (la, p)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_render_shows_grid():
    text = AbacusDisplay.from_partition((7, 7, 2, 2, 1), 5, 15).render()
    lines = text.splitlines()
    assert lines[0].split() == ["1", "2", "3", "4", "5"]
    assert lines[2] == "● ● ● ● ●"
    assert lines[4] == "○ ● ○ ● ●"
