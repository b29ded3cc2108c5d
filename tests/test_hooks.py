from collections import Counter

import pytest
from hypothesis import given

import pblock as pb
from pblock.hooks import _is_jm_direct, format_diagram, p_adic_valuation
from conftest import all_partitions_up_to, partitions


def hook_by_counting(la, node):
    """Arm plus leg plus one, counted cell by cell."""
    row, col = node
    arm = sum(1 for j in range(col + 1, la[row - 1] + 1))
    leg = sum(1 for i in range(row + 1, len(la) + 1) if la[i - 1] >= col)
    return arm + leg + 1


def test_hook_diagram_worked_example():
    diagram = pb.hook_lengths((6, 4, 2, 2, 1, 1))
    assert diagram[0] == [11, 8, 5, 4, 2, 1]
    assert diagram[1] == [8, 5, 2, 1]
    assert diagram[0][0] == 11
    # self-conjugate shape: the diagram is symmetric
    assert diagram[0][1] == diagram[1][0]


def test_hook_diagram_trivial():
    assert pb.hook_lengths((1,)) == [[1]]
    assert pb.hook_lengths(()) == []


@given(partitions())
def test_hook_formula_matches_counting(la):
    diagram = pb.hook_lengths(la)
    for i, row in enumerate(diagram, start=1):
        for j, h in enumerate(row, start=1):
            assert h == hook_by_counting(la, (i, j))


def test_hook_diagram_matches_counting_exhaustive():
    for la in all_partitions_up_to(14):
        assert pb.hook_lengths(la) == [[hook_by_counting(la, (i, j)) for j in range(1, part + 1)]
                                       for i, part in enumerate(la, start=1)], la


def test_hook_multiset_conjugation_invariant_exhaustive():
    for la in all_partitions_up_to(25):
        mine = Counter(h for row in pb.hook_lengths(la) for h in row)
        conj = Counter(h for row in pb.hook_lengths(pb.conjugate(la)) for h in row)
        assert mine == conj


def test_p_adic_valuation():
    assert p_adic_valuation(10, 5) == 1
    assert p_adic_valuation(50, 5) == 2
    assert p_adic_valuation(7, 5) == 0
    with pytest.raises(ValueError):
        p_adic_valuation(0, 5)


def test_p_power_diagram_worked_example():
    powers = pb.p_power_diagram((6, 4, 2, 2, 1, 1), 5)
    assert sum(entry == 1 for row in powers for entry in row) == 3
    assert all(entry in (0, 1) for row in powers for entry in row)
    assert all(entry == 0 for row in pb.p_power_diagram((6, 4, 2, 2, 1, 1), 3) for entry in row)


def test_p_power_diagram_small_partition_is_zero():
    for la in pb.partitions_of(4):
        assert all(e == 0 for row in pb.p_power_diagram(la, 5) for e in row)


def test_jm_direct_worked_examples():
    assert not pb.is_jm_direct((6, 4, 2, 2, 1, 1), 5)
    assert pb.is_jm_direct((6, 4, 2, 2, 1, 1), 3)
    for p in (5, 7):
        assert pb.is_jm_direct((3 * p,), p)
    for la in pb.partitions_of(4):
        assert pb.is_jm_direct(la, 5)


def test_jm_direct_conjugation_symmetric_exhaustive():
    for p in (5, 7):
        for la in all_partitions_up_to(25):
            assert pb.is_jm_direct(la, p) == pb.is_jm_direct(pb.conjugate(la), p)


def is_jm_by_literal_rule(la, p):
    """The row/column rule read node by node off the full p-power diagram."""
    powers = pb.p_power_diagram(la, p)
    columns = [[row[j] for row in powers if j < len(row)] for j in range(la[0] if la else 0)]
    return all(len(set(row)) == 1 or len(set(columns[j])) == 1
               for row in powers for j, entry in enumerate(row) if entry)


def test_sparse_direct_test_matches_the_literal_rule():
    domain = [(la, p) for la in all_partitions_up_to(20) for p in (3, 5, 7, 11, 13)]
    domain += [(la, p) for la in pb.partitions_of(30) for p in (3, 5)]
    verdicts = Counter()
    for la, p in domain:
        verdict = is_jm_by_literal_rule(la, p)
        assert _is_jm_direct(la, p) == verdict, (la, p)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_format_diagram_prints_zeros():
    text = format_diagram(pb.p_power_diagram((6, 4, 2, 2, 1, 1), 5))
    assert text.splitlines()[0].split() == ["0", "0", "1", "0", "0", "0"]
    assert format_diagram([]) == "-"
