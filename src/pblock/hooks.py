"""Hook lengths, p-power diagrams and the direct row/column irreducibility test."""

from __future__ import annotations

from .partitions import Partition, conjugate, is_prime, partition

Diagram = list[list[int]]


def p_adic_valuation(h: int, p: int) -> int:
    """Largest e with p**e dividing h, by repeated division."""
    if h == 0:
        raise ValueError("valuation of zero is undefined")
    e = 0
    while h % p == 0:
        h //= p
        e += 1
    return e


def hook_lengths(la: Partition) -> Diagram:
    """Tableau of shape ``la`` whose (i, j) entry is the (i, j)-hook length."""
    conj = conjugate(la)
    return [[la[i] - (i + 1) + conj[j] - (j + 1) + 1 for j in range(la[i])]
            for i in range(len(la))]


def p_power_diagram(la: Partition, p: int) -> Diagram:
    """Tableau of p-adic valuations of the hook lengths."""
    return [[p_adic_valuation(h, p) for h in row] for row in hook_lengths(la)]


def is_jm_direct(la: Partition, p: int) -> bool:
    """Row/column test on the p-power diagram.

    True iff for every node whose diagram entry is positive, either all
    entries in its row or all entries in its column coincide.  The quantifier
    runs over all nodes, not only rim nodes.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("the test needs an odd prime p")
    la = partition(la)
    powers = p_power_diagram(la, p)
    conj = conjugate(la)
    row_equal = [len(set(row)) <= 1 for row in powers]
    col_equal = [len({powers[i][j] for i in range(conj[j])}) <= 1
                 for j in range(la[0] if la else 0)]
    for i, row in enumerate(powers):
        for j, entry in enumerate(row):
            if entry > 0 and not (row_equal[i] or col_equal[j]):
                return False
    return True


def format_diagram(diagram: Diagram) -> str:
    """Left-justified rows of integers; zeros are printed."""
    if not diagram:
        return "-"
    width = max((len(str(e)) for row in diagram for e in row), default=1)
    return "\n".join(" ".join(str(e).rjust(width) for e in row) for row in diagram)
