"""The Mullineux involution via p-rim stripping, and rim-hook parity.

The p-rim of a partition is walked from the top-right cell to the bottom-left
in segments of p cells; a full segment skips the rest of its final row.
``strip_p_rim`` takes it off by row arithmetic, and ``_add_p_rim`` puts it back
by one walk of the segments from the bottom row up.  Stripping down to the empty
partition records the symbol (sizes stripped; row counts); the involution
replaces each row count r_j with a_j - r_j (+1 when p does not divide a_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, sub

from .abacus import rim_hook_leg_sum
from .partitions import (
    Partition,
    good_nodes,
    is_p_regular,
    is_prime,
    partition,
    remove_node,
    residue,
)


def strip_p_rim(la: Partition, p: int) -> tuple[Partition, int, int]:
    """Remove the p-rim; returns (smaller partition, cells removed, rows of ``la``)."""
    if not la:
        raise ValueError("cannot strip the empty partition")
    taken, need = [], p  # cells the walk takes per row; cells its open segment lacks
    for part, below in zip(la, la[1:] + (0,)):
        take = min(part - max(below, 1) + 1, need)  # row i offers la_i - max(la_{i+1}, 1) + 1
        taken.append(take)
        need = need - take or p  # a filled segment restarts with the next row
    parts = list(map(sub, la, taken))
    if not all(map(ge, parts, parts[1:])):
        raise ValueError(f"{tuple(parts)} is not a partition: parts not weakly decreasing")
    return tuple(parts[:len(parts) - parts.count(0)]), sum(taken), len(la)


@dataclass(frozen=True)
class MullineuxSymbol:
    """Two equal-length rows: p-rim sizes ``a`` (weakly decreasing) and row counts ``r``."""

    a: tuple[int, ...]
    r: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.r):
            raise ValueError("rows of a Mullineux symbol must have equal length")
        if any(type(x) is not int or x < 1 for x in (*self.a, *self.r)):
            raise ValueError(f"entries of a Mullineux symbol must be positive integers: {self}")

    def format(self) -> str:
        width = max((len(str(x)) for x in self.a + self.r), default=1)
        top = " ".join(str(x).rjust(width) for x in self.a)
        bot = " ".join(str(x).rjust(width) for x in self.r)
        return f"({top})\n({bot})"

    def to_json_dict(self) -> dict:
        return {"a": list(self.a), "r": list(self.r)}


def _regular(la: Partition, p: int) -> Partition:
    """``la`` as a partition, once p is a prime and ``la`` is p-regular: the input boundary."""
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    la = partition(la)
    if not is_p_regular(la, p):
        raise ValueError(f"{la} is not {p}-regular")
    return la


def mullineux_symbol(la: Partition, p: int) -> MullineuxSymbol:
    """Strip p-rims down to the empty partition, recording sizes and row counts."""
    return MullineuxSymbol(*_symbol_rows(_regular(la, p), p))


def _symbol_rows(la: Partition, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows (a, r) of ``la``'s Mullineux symbol, unchecked."""
    sizes, rows = [], []
    current = la
    while current:
        current, a, k = strip_p_rim(current, p)
        sizes.append(a)
        rows.append(k)
    return tuple(sizes), tuple(rows)


def _add_p_rim(mu: Partition, a: int, r: int, p: int) -> Partition:
    """The unique partition with r rows whose p-rim strip yields (``mu``, ``a``).

    One walk from the bottom row up places the segments, the last first.  A row
    i passed through had mu_{i-1} + 1 cells and gives d_i = mu_{i-1} - mu_i + 1;
    a segment starts in the lowest row whose d_i fills it (else in row 1), and
    that row takes the rest.  Re-stripping validates the one candidate.
    """
    if r < len(mu) or r < 1:
        raise ValueError(f"cannot add a p-rim of {a} cells onto {mu} with {r} rows")
    m = list(mu) + [0] * (r - len(mu))
    la, end = m[:], r  # end: the bottom row of the segment being placed
    for size in [a - p * ((a - 1) // p)] + [p] * min((a - 1) // p, r):  # r rows fit at most r segments
        start, given = end, 0  # given: what rows start+1..end give
        while start > 1 and given + m[start - 2] - m[start - 1] + 1 < size:
            given += m[start - 2] - m[start - 1] + 1
            la[start - 1] = m[start - 2] + 1
            start -= 1
        la[start - 1] = m[start - 1] + size - given
        end = start - 1
        if end < 1:
            break
    if not all(map(ge, la, la[1:])) or strip_p_rim(tuple(la), p) != (mu, a, r):
        raise ValueError(f"no unique p-rim addition for {(mu, a, r)}: []")
    return tuple(la)


def partition_from_symbol(symbol: MullineuxSymbol, p: int) -> Partition:
    """Rebuild the partition encoded by a Mullineux symbol."""
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    return _rebuild(symbol.a, symbol.r, p)


def _rebuild(sizes, rows, p: int) -> Partition:
    """The partition whose symbol has rows ``sizes`` and ``rows``: p-rims added back, the last first."""
    current: Partition = ()
    for a, r in zip(reversed(sizes), reversed(rows)):
        current = _add_p_rim(current, a, r, p)
    return current


def mullineux(la: Partition, p: int) -> Partition:
    """The Mullineux image: same rim sizes, row counts a_j - r_j (+1 unless p | a_j)."""
    return _mullineux(_regular(la, p), p)


def _mullineux(la: Partition, p: int) -> Partition:
    """:func:`mullineux` for a p-regular partition and a prime p, unchecked."""
    return _flipped_image(*_symbol_rows(la, p), p)


def _flipped_image(sizes, rows, p: int) -> Partition:
    """The Mullineux image of the partition whose symbol has rows ``sizes`` and ``rows``.

    Rebuilds from the flipped symbol through ``_add_p_rim``, whose re-strip checks each step.
    """
    return _rebuild(sizes, [a - r + (1 if a % p else 0) for a, r in zip(sizes, rows)], p)


def parity(la: Partition, p: int) -> int:
    """+1 or -1: parity of the total leg length of a complete rim p-hook removal."""
    return -1 if rim_hook_leg_sum(la, p) % 2 else 1


def check_good_node_compatibility(la: Partition, p: int) -> bool:
    """Good nodes of ``la`` and of its image pair off with negated residues.

    For every good node A of residue alpha whose removal stays p-regular,
    the image must have a good node B of residue -alpha with
    m(la - A) = m(la) - B.
    """
    if not is_p_regular(la, p):
        raise ValueError(f"{la} is not {p}-regular")
    return _good_nodes_pair_off(la, mullineux(la, p), p)


def _good_nodes_pair_off(la: Partition, image: Partition, p: int) -> bool:
    """The good-node pairing of :func:`check_good_node_compatibility`, given ``la``'s image."""
    image_goods = {residue(node, p): node for node in good_nodes(image, p)}
    for node in good_nodes(la, p):
        smaller = remove_node(la, node)
        if not is_p_regular(smaller, p):
            continue
        mirror = image_goods.get(-residue(node, p) % p)
        if mirror is None:
            return False
        if _mullineux(smaller, p) != remove_node(image, mirror):
            return False
    return True
