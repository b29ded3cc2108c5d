import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pblock as pb
from pblock.partitions import is_prime
from conftest import all_partitions_up_to, partitions, primes_small


def cells(la):
    return {(i + 1, j + 1) for i, part in enumerate(la) for j in range(part)}


def conjugate_by_transposing_cells(la):
    flipped = {(j, i) for i, j in cells(la)}
    rows = {}
    for i, _ in flipped:
        rows[i] = rows.get(i, 0) + 1
    return tuple(rows[i] for i in sorted(rows))


def normal_nodes_by_matching(la, p):
    """Literal definition: an injective map from addable nodes above to
    removable nodes above, each landing strictly below its source."""
    rem = pb.removable_nodes(la)
    add = pb.addable_nodes(la)

    def has_matching(sources, targets):
        if not sources:
            return True
        first, rest = sources[0], sources[1:]
        for idx, target in enumerate(targets):
            if target[0] > first[0] and has_matching(rest, targets[:idx] + targets[idx + 1:]):
                return True
        return False

    out = []
    for node in rem:
        res = pb.residue(node, p)
        above_add = [b for b in add if pb.residue(b, p) == res and b[0] < node[0]]
        above_rem = [c for c in rem if pb.residue(c, p) == res and c[0] < node[0]]
        if has_matching(above_add, above_rem):
            out.append(node)
    return sorted(out)


# ---------------------------------------------------------------------------
# construction and text form
# ---------------------------------------------------------------------------

def test_partition_canonicalizes_trailing_zeros():
    assert pb.partition([4, 2, 1, 0, 0]) == (4, 2, 1)
    assert pb.partition([]) == ()


@pytest.mark.parametrize("bad", [[1, 2], [3, 0, 2], [2, -1]])
def test_partition_rejects_bad_shapes(bad):
    with pytest.raises(ValueError):
        pb.partition(bad)


@pytest.mark.parametrize("bad", [[3.7, 2], [3.0], (True,), [2, False], ["3"]])
def test_partition_rejects_non_integer_parts(bad):
    with pytest.raises(ValueError, match="integer"):
        pb.partition(bad)


@pytest.mark.parametrize("not_int", [5.0, 7.0, "5"])
def test_is_prime_is_false_off_the_integers(not_int):
    assert not is_prime(not_int)


def test_parse_and_format():
    assert pb.parse_partition("6,4,2,2,1,1") == (6, 4, 2, 2, 1, 1)
    assert pb.parse_partition("") == ()
    assert pb.parse_partition("-") == ()
    assert pb.format_partition(()) == "-"
    assert pb.format_partition((3, 1)) == "3,1"
    with pytest.raises(ValueError):
        pb.parse_partition("3,x")


def test_partitions_of_counts():
    # first values of the partition-counting function
    for n, expected in enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]):
        assert sum(1 for _ in pb.partitions_of(n)) == expected


def partition_counts_by_pentagonal_recurrence(nmax):
    """Euler: p(n) is the sum over k != 0 of (-1)^(k+1) p(n - k(3k-1)/2)."""
    counts = [1]
    for n in range(1, nmax + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for pentagonal in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pentagonal <= n:
                    total += sign * counts[n - pentagonal]
            k += 1
        counts.append(total)
    return counts


def test_partitions_of_counts_follow_the_pentagonal_recurrence():
    expected = partition_counts_by_pentagonal_recurrence(40)
    assert expected[40] == 37338
    assert [sum(1 for _ in pb.partitions_of(n)) for n in range(41)] == expected


def test_partitions_of_is_strictly_descending_and_canonical():
    for n in range(31):
        listed = list(pb.partitions_of(n))
        assert all(a > b for a, b in zip(listed, listed[1:])), n
        assert all(pb.partition(la) == la and sum(la) == n for la in listed), n


def test_partitions_of_bounds_the_largest_part():
    assert list(pb.partitions_of(0)) == [()]
    assert list(pb.partitions_of(0, 0)) == [()]
    for n in range(1, 16):
        unbounded = list(pb.partitions_of(n))
        for max_part in (None, 0, 1, n // 2, n, n + 3):
            bound = n if max_part is None else max_part
            assert list(pb.partitions_of(n, max_part)) == [la for la in unbounded
                                                           if la[0] <= bound], (n, max_part)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugate_examples():
    assert pb.conjugate((6, 4, 2, 2, 1, 1)) == (6, 4, 2, 2, 1, 1)
    assert pb.conjugate(()) == ()
    assert pb.conjugate((15,)) == (1,) * 15


@given(partitions())
def test_conjugate_is_involution_and_matches_cell_transpose(la):
    assert pb.conjugate(pb.conjugate(la)) == la
    assert pb.conjugate(la) == conjugate_by_transposing_cells(la)


# ---------------------------------------------------------------------------
# dominance and lex
# ---------------------------------------------------------------------------

def test_dominance_examples():
    assert pb.dominates((4,), (2, 2))
    assert pb.dominates((2, 2), (2, 2))
    assert pb.dominates((3, 1), (2, 2))
    assert not pb.dominates((2, 2), (3, 1))
    with pytest.raises(ValueError):
        pb.dominates((3,), (2, 2))


def test_single_row_is_maximal():
    for la in pb.partitions_of(8):
        assert pb.dominates((8,), la)


def test_dominance_implies_lex_small_exhaustive():
    for n in range(1, 13):
        block = list(pb.partitions_of(n))
        for la in block:
            for mu in block:
                if pb.dominates(la, mu):
                    assert la >= mu


@given(st.integers(min_value=13, max_value=30), st.data())
@settings(max_examples=60)
def test_dominance_implies_lex_sampled(n, data):
    block = list(pb.partitions_of(n))
    la = data.draw(st.sampled_from(block))
    mu = data.draw(st.sampled_from(block))
    if pb.dominates(la, mu):
        assert la >= mu


# ---------------------------------------------------------------------------
# regularity and restriction
# ---------------------------------------------------------------------------

def test_regularity_examples():
    assert not pb.is_p_regular((1, 1, 1, 1, 1), 5)
    for p in (5,):
        for i in range(1, p + 1):
            hook = (p + i,) + (1,) * (2 * p - i)
            assert not pb.is_p_regular(hook, p)
            assert not pb.is_p_restricted(hook, p)
    assert pb.is_p_regular((5, 4, 3, 2, 1), 5)
    assert pb.is_p_restricted((5, 4, 3, 2, 1), 5)


def test_restricted_iff_conjugate_regular_exhaustive():
    for p in (2, 3, 5):
        for la in all_partitions_up_to(14):
            assert pb.is_p_restricted(la, p) == pb.is_p_regular(pb.conjugate(la), p)


@given(partitions(max_n=40), primes_small)
def test_restricted_iff_conjugate_regular(la, p):
    assert pb.is_p_restricted(la, p) == pb.is_p_regular(pb.conjugate(la), p)


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

def test_node_examples():
    la = (6, 4, 2, 2, 1, 1)
    assert pb.removable_nodes(la) == [(1, 6), (2, 4), (4, 2), (6, 1)]
    assert pb.residue((1, 6), 5) == 0
    assert pb.residue((2, 4), 5) == 2
    assert pb.removable_nodes(()) == []
    assert pb.addable_nodes(()) == [(1, 1)]


def test_remove_and_add_nodes():
    assert pb.remove_node((6, 4, 2, 2, 1, 1), (1, 6)) == (5, 4, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        pb.remove_node((6, 4, 2), (2, 2))  # interior node
    with pytest.raises(ValueError):
        pb.add_node((6, 4, 2), (2, 4))  # occupied cell


@given(partitions())
def test_remove_then_add_roundtrip(la):
    for node in pb.removable_nodes(la):
        assert pb.add_node(pb.remove_node(la, node), node) == la
    for node in pb.addable_nodes(la):
        assert pb.remove_node(pb.add_node(la, node), node) == la


def test_normal_and_good_nodes_worked_example():
    la = (6, 4, 2, 2, 1, 1)
    assert pb.normal_nodes(la, 5) == [(1, 6), (2, 4)]
    assert pb.good_nodes(la, 5) == [(1, 6), (2, 4)]
    assert (4, 2) not in pb.normal_nodes(la, 5)


def test_one_row_partition_has_good_corner():
    for n in (1, 4, 9):
        assert pb.normal_nodes((n,), 5) == [(1, n)]
        assert pb.good_nodes((n,), 5) == [(1, n)]


def test_normal_nodes_scan_equals_literal_matching_exhaustive():
    for p in (2, 3, 5):
        for la in all_partitions_up_to(12):
            assert pb.normal_nodes(la, p) == normal_nodes_by_matching(la, p)


@given(partitions(max_n=25), primes_small)
@settings(max_examples=150)
def test_normal_nodes_scan_equals_literal_matching(la, p):
    assert pb.normal_nodes(la, p) == normal_nodes_by_matching(la, p)


@given(partitions(), primes_small)
def test_node_containments(la, p):
    removable = set(pb.removable_nodes(la))
    normal = set(pb.normal_nodes(la, p))
    good = set(pb.good_nodes(la, p))
    assert good <= normal <= removable
    residues = [pb.residue(node, p) for node in good]
    assert len(residues) == len(set(residues))


def test_is_hook():
    assert pb.is_hook((6, 1, 1))
    assert pb.is_hook((1,))
    for p, i in ((5, 1), (5, 5)):
        assert pb.is_hook((p + i,) + (1,) * (2 * p - i))
    assert not pb.is_hook((5, 4, 3, 2, 1))
    assert not pb.is_hook(())
