"""Integer partitions and their node-level combinatorics.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty partition of 0.  Nodes of the Young diagram are
1-based ``(row, col)`` pairs, rows counted from the top.

Public entry points check their arguments before use: :func:`partition` checks a
partition, ``_require_modulus`` any p, ``_require_odd_prime`` the irreducibility tests' p,
``mullineux._require_prime`` the Mullineux map's and ``blocks.require_block_prime`` a block's.
"""

from __future__ import annotations

import operator
from itertools import groupby
from typing import Iterator

Partition = tuple[int, ...]
Node = tuple[int, int]


def is_prime(p: int) -> bool:
    """True for a prime ``int``; False for anything else, a float or a bool included."""
    if type(p) is not int or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _require_modulus(p) -> None:
    if type(p) is not int or p < 2:
        raise ValueError(f"p must be an integer at least 2, got {p}")


def _require_odd_prime(p) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError("the test needs an odd prime p")


def partition(parts) -> Partition:
    """Canonicalize integer parts, dropping trailing zeros: the package's one shape rule.

    Each defect raises "<parts> is not a partition: <reason>".
    """
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


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form, e.g. ``6,4,2,2,1,1`` (empty or ``-`` for the empty partition)."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        parts = [int(piece) for piece in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse partition {text!r}") from exc
    return partition(parts)


def format_partition(la: Partition) -> str:
    """Inverse of :func:`parse_partition`; the empty partition prints as ``-``."""
    return ",".join(str(x) for x in la) if la else "-"


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of ``n`` with parts at most ``max_part``, in descending lex order.

    Iterative (Zoghbi and Stojmenovic's ZS1): ``x[:m]`` is the current partition and
    ``x[h]`` its last part above 1, every later entry being 1.  The successor lowers
    ``x[h]`` by one and refills what follows greedily with parts of that size.
    """
    if n == 0:
        yield ()
        return
    top = n if max_part is None or max_part > n else max_part
    if top < 1:
        return
    count, rest = divmod(n, top)
    x = [top] * count + [1] * (n - count)
    if rest:
        x[count] = rest
    m = count + (rest > 0)
    h = count - 1 + (rest > 1) if top > 1 else -1
    yield tuple(x[:m])
    while h >= 0:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1
            if t:
                m += 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def conjugate(la: Partition) -> Partition:
    """Transpose of the Young diagram (column lengths).

    One pass up the parts: row i, read from the bottom, ends columns of length i.
    """
    conj: list[int] = []
    for i in range(len(la), 0, -1):
        conj += [i] * (la[i - 1] - len(conj))
    return tuple(conj)


def dominates(la: Partition, mu: Partition) -> bool:
    """Dominance order: every prefix sum of ``la`` weakly exceeds that of ``mu``.

    Only defined for partitions of the same number.
    """
    if sum(la) != sum(mu):
        raise ValueError(f"dominance undefined: |{la}| != |{mu}|")
    total_l = total_m = 0
    for i in range(max(len(la), len(mu))):
        total_l += la[i] if i < len(la) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def strictly_dominates(la: Partition, mu: Partition) -> bool:
    return la != mu and dominates(la, mu)


def lex_compare(la: Partition, mu: Partition) -> int:
    """Lexicographic comparison: -1, 0 or 1.  Tuples of parts compare directly."""
    return (la > mu) - (la < mu)


def is_p_regular(la: Partition, p: int) -> bool:
    """No p equal positive parts."""
    _require_modulus(p)
    return all(len(tuple(run)) < p for _, run in groupby(la))


def is_p_restricted(la: Partition, p: int) -> bool:
    """All gaps between consecutive parts (and the last part) are below p."""
    _require_modulus(p)
    padded = la + (0,)
    return all(padded[i] - padded[i + 1] < p for i in range(len(la)))


def residue(node: Node, p: int) -> int:
    """The p-residue (col - row) mod p of a node."""
    row, col = node
    return (col - row) % p


def removable_nodes(la: Partition) -> list[Node]:
    """Nodes whose removal leaves a partition, listed top-down."""
    k = len(la)
    return [(i, la[i - 1]) for i in range(1, k + 1)
            if la[i - 1] > (la[i] if i < k else 0)]


def addable_nodes(la: Partition) -> list[Node]:
    """Nodes whose addition leaves a partition, listed top-down."""
    k = len(la)
    nodes = []
    for i in range(1, k + 1):
        if i == 1 or la[i - 2] > la[i - 1]:
            nodes.append((i, la[i - 1] + 1))
    nodes.append((k + 1, 1))
    return nodes


def remove_node(la: Partition, node: Node) -> Partition:
    if node not in removable_nodes(la):
        raise ValueError(f"{node} is not a removable node of {la}")
    i = node[0]
    return partition(la[: i - 1] + (la[i - 1] - 1,) + la[i:])


def add_node(la: Partition, node: Node) -> Partition:
    if node not in addable_nodes(la):
        raise ValueError(f"{node} is not an addable node of {la}")
    i = node[0]
    if i == len(la) + 1:
        return la + (1,)
    return la[: i - 1] + (la[i - 1] + 1,) + la[i:]


def normal_nodes(la: Partition, p: int) -> list[Node]:
    """Removable nodes passing the matching condition against addable nodes above.

    Implemented as a bracketing scan per residue: reading the addable and
    removable nodes of one residue top-down, an addable node cancels the
    next removable node below it; the surviving removable nodes are normal.
    """
    _require_modulus(p)
    events: dict[int, list[tuple[int, bool]]] = {}
    for node in addable_nodes(la):
        events.setdefault(residue(node, p), []).append((node[0], True))
    for node in removable_nodes(la):
        events.setdefault(residue(node, p), []).append((node[0], False))
    normals = []
    for res, items in events.items():
        open_addables = 0
        for row, is_addable in sorted(items):
            if is_addable:
                open_addables += 1
            elif open_addables > 0:
                open_addables -= 1
            else:
                normals.append((row, la[row - 1]))
    return sorted(normals)


def good_nodes(la: Partition, p: int) -> list[Node]:
    """The lowest normal node of each residue, listed top-down."""
    lowest: dict[int, Node] = {}
    for node in normal_nodes(la, p):
        lowest[residue(node, p)] = node
    return sorted(lowest.values())


def is_hook(la: Partition) -> bool:
    """True for partitions of the form (i, 1, 1, ..., 1)."""
    return bool(la) and (len(la) == 1 or la[1] <= 1)
