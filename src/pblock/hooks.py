"""Hook lengths, p-power diagrams and the direct row/column irreducibility test."""

from __future__ import annotations

from bisect import bisect_left

from .partitions import Partition, _require_modulus, _require_odd_prime, conjugate, partition

Diagram = list[list[int]]


def p_adic_valuation(h: int, p: int) -> int:
    """Largest e with p**e dividing h, by repeated division."""
    _require_modulus(p)
    if h == 0:
        raise ValueError("valuation of zero is undefined")
    e = 0
    while h % p == 0:
        h //= p
        e += 1
    return e


def hook_lengths(la: Partition) -> Diagram:
    """Tableau of shape ``la`` whose (i, j) entry is the (i, j)-hook length.

    With 0-based i and j it is ``(la[i] - i - 1) + (la'[j] - j)``: one map per row.
    """
    la = partition(la)
    legs = [c - j for j, c in enumerate(conjugate(la))]
    return [list(map((part - i - 1).__add__, legs[:part])) for i, part in enumerate(la)]


def p_power_diagram(la: Partition, p: int) -> Diagram:
    """Tableau of p-adic valuations of the hook lengths."""
    _require_modulus(p)
    return [[p_adic_valuation(h, p) if h % p == 0 else 0 for h in row] for row in hook_lengths(la)]


def is_jm_direct(la: Partition, p: int) -> bool:
    """Row/column test on the p-power diagram.

    True iff for every node whose diagram entry is positive, either all
    entries in its row or all entries in its column coincide.  The quantifier
    runs over all nodes, not only rim nodes.
    """
    _require_odd_prime(p)
    return _is_jm_direct(partition(la), p)


def _is_jm_direct(la: Partition, p: int) -> bool:
    """:func:`is_jm_direct` for a partition and an odd prime, unchecked.

    It passes at once when the largest hook, h(1,1) = la_1 + len(la) - 1, is below p.
    Otherwise it visits only the hooks divisible by p.  With 0-based i and j, h(i, j)
    is the arm a_i = la_i - i - 1 plus the leg l_j = la'_j - j, so the positive
    entries of row i are the columns j < la_i whose leg is -a_i mod p.  A row without
    such a column is all zeros; a row made only of them is constant when its
    valuations are; each positive column of any other row must be constant, which is
    decided once per column.
    """
    if not la or la[0] + len(la) - 1 < p:
        return True
    conj = conjugate(la)
    legs = [c - j for j, c in enumerate(conj)]
    columns: list[list[int]] = [[] for _ in range(p)]
    for j, leg in enumerate(legs):
        columns[leg % p].append(j)
    constant: dict[int, bool] = {}
    for i, part in enumerate(la):
        arm = part - i - 1
        bucket = columns[-arm % p]
        positive = bucket[:bisect_left(bucket, part)]
        if not positive:
            continue
        if len(positive) == part and len({p_adic_valuation(arm + legs[j], p) for j in positive}) == 1:
            continue
        for j in positive:
            if j not in constant:
                leg = legs[j]
                constant[j] = _constant_column([la[k] - k - 1 + leg for k in range(conj[j])], p)
            if not constant[j]:
                return False
    return True


def _constant_column(column: list[int], p: int) -> bool:
    """True iff every hook in ``column`` is divisible by p, all to the same power."""
    if any(h % p for h in column):
        return False
    return len({p_adic_valuation(h, p) for h in column}) == 1


def format_diagram(diagram: Diagram) -> str:
    """Left-justified rows of integers; zeros are printed."""
    if not diagram:
        return "-"
    width = max((len(str(e)) for row in diagram for e in row), default=1)
    return "\n".join(" ".join(str(e).rjust(width) for e in row) for row in diagram)
