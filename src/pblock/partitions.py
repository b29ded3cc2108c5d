"""Integer partitions and their node-level combinatorics.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty partition of 0.  Nodes of the Young diagram are
1-based ``(row, col)`` pairs, rows counted from the top.

Public entry points check their arguments before use: :func:`partition` checks a
partition, ``_require_modulus`` any p, ``_require_odd_prime`` the irreducibility tests' p,
``mullineux._require_prime`` the Mullineux map's and ``blocks.require_block_prime`` a block's;
``_require_runner`` a block index or runner i and ``_require_bead_count`` a bead count r; each
takes an ``int``, not a bool, in range.

The kernels that a sweep calls once per partition build each tuple from a list,
a slice or a concatenation, whose length is known, never with ``tuple()`` over a
generator, ``map`` or ``groupby``: such a build starts from 10 slots and shrinks,
and CPython parks the shrunken tuple, once freed, on its per-length free list,
from which a later build of unknown length never draws.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import ge, index, is_, ne
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


def _require_runner(i, p: int, least: int = 1) -> None:
    if type(i) is not int or not least <= i <= p:
        raise ValueError(f"runner {i} out of range for p={p}: need {least} <= i <= p")


def _require_bead_count(r, least: int) -> None:
    if type(r) is not int or r < least:
        raise ValueError(f"bead count must be an integer at least {least}, got {r}")


def _require_odd_prime(p) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError("the test needs an odd prime p")


def partition(parts) -> Partition:
    """Canonicalize integer parts, dropping trailing zeros: the package's one shape rule.

    Each defect, a non-iterable ``parts`` included, raises "<parts> is not a partition: <reason>".
    """
    try:
        la = tuple(parts)
    except TypeError as exc:
        raise ValueError(f"{parts!r} is not a partition: {exc}") from None
    try:
        p = list(map(index, la))
    except TypeError as exc:
        raise ValueError(f"{la} is not a partition: {exc}") from None
    if bool in map(type, la):
        raise ValueError(f"{la} is not a partition: a boolean part is not an integer")
    while p and p[-1] == 0:
        p.pop()
    if p and p[-1] < 0:
        raise ValueError(f"{la} is not a partition: negative part {p[-1]}")
    if not all(map(ge, p, p[1:])):
        raise ValueError(f"{la} is not a partition: parts not weakly decreasing")
    # ``index`` returns a plain int as itself, so a canonical tuple is returned unchanged.
    return la if len(p) == len(la) and all(map(is_, p, la)) else tuple(p)


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


def is_p_regular(la: Partition, p: int) -> bool:
    """No p equal positive parts: no part equals the part p - 1 rows below it."""
    _require_modulus(p)
    return all(map(ne, la, islice(la, p - 1, None)))


def is_p_restricted(la: Partition, p: int) -> bool:
    """All gaps between consecutive parts (and the last part) are below p."""
    _require_modulus(p)
    return all(a - b < p for a, b in zip(la, chain(islice(la, 1, None), (0,))))


def residue(node: Node, p: int) -> int:
    """The p-residue (col - row) mod p of a node."""
    _require_modulus(p)
    return _residue(node, p)


def _residue(node: Node, p: int) -> int:
    """:func:`residue` for a checked p: the per-node loops call it."""
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


def _without(la: Partition, node: Node) -> Partition:
    """``la`` less its removable ``node``, unchecked: a row of one cell is the last row."""
    i = node[0]
    return la[:i - 1] + (la[i - 1] - 1,) * (la[i - 1] > 1) + la[i:]


def _with(la: Partition, node: Node) -> Partition:
    """``la`` plus its addable ``node``, unchecked."""
    row, col = node
    return la[:row - 1] + (col,) + la[row:]


def remove_node(la: Partition, node: Node) -> Partition:
    if node not in removable_nodes(la):
        raise ValueError(f"{node} is not a removable node of {la}")
    return _without(la, node)


def add_node(la: Partition, node: Node) -> Partition:
    if node not in addable_nodes(la):
        raise ValueError(f"{node} is not an addable node of {la}")
    return _with(la, node)


def normal_nodes(la: Partition, p: int) -> list[Node]:
    """Removable nodes passing the matching condition against addable nodes above.

    Implemented as one top-down bracketing scan: an addable node of residue c
    cancels the next removable node of residue c below it, and the removable
    nodes left uncancelled are normal.  ``open_addables[c]`` counts the
    addable nodes of residue c still waiting for a removable node.
    """
    _require_modulus(p)
    open_addables = [0] * p
    normals = []
    addables = iter(addable_nodes(la))
    above = next(addables)  # the last addable node, in row len(la) + 1, is below every removable one
    for node in removable_nodes(la):
        while above[0] < node[0]:
            open_addables[_residue(above, p)] += 1
            above = next(addables)
        res = _residue(node, p)
        if open_addables[res]:
            open_addables[res] -= 1
        else:
            normals.append(node)
    return normals


def good_nodes(la: Partition, p: int) -> list[Node]:
    """The lowest normal node of each residue, listed top-down."""
    lowest: dict[int, Node] = {}
    for node in normal_nodes(la, p):
        lowest[_residue(node, p)] = node
    return sorted(lowest.values())


def is_hook(la: Partition) -> bool:
    """True for partitions of the form (i, 1, 1, ..., 1)."""
    return bool(la) and (len(la) == 1 or la[1] <= 1)
