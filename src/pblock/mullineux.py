"""The Mullineux involution via p-rim stripping, and rim-hook parity.

The p-rim of a partition is collected by walking the rim from the top-right
cell towards the bottom-left in segments of p cells: once a segment is full,
the rest of its final row is skipped and the next segment starts with the
rim of the following row.  Stripping p-rims down to the empty partition
records the symbol (sizes stripped; row counts), and the involution acts on
symbols by replacing each row count r_j with a_j - r_j (+1 when p does not
divide a_j).
"""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import rim_hook_leg_sum
from .partitions import (
    Node,
    Partition,
    good_nodes,
    is_p_regular,
    is_prime,
    partition,
    remove_node,
    residue,
)


def rim_path(la: Partition) -> list[Node]:
    """Rim cells from (1, la_1) to the bottom-left, in walk order."""
    cells = []
    k = len(la)
    for i in range(1, k + 1):
        hi = la[i - 1]
        lo = max(la[i] if i < k else 0, 1)
        cells.extend((i, j) for j in range(hi, lo - 1, -1))
    return cells


def p_rim(la: Partition, p: int) -> list[Node]:
    """The cells stripped by one p-rim removal, in walk order."""
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


def strip_p_rim(la: Partition, p: int) -> tuple[Partition, int, int]:
    """Remove the p-rim; returns (smaller partition, cells removed, rows of ``la``)."""
    if not la:
        raise ValueError("cannot strip the empty partition")
    removed_per_row = [0] * len(la)
    rim = p_rim(la, p)
    for i, _ in rim:
        removed_per_row[i - 1] += 1
    stripped = partition(part - t for part, t in zip(la, removed_per_row))
    return stripped, len(rim), len(la)


@dataclass(frozen=True)
class MullineuxSymbol:
    """Two equal-length rows: p-rim sizes ``a`` (weakly decreasing) and row counts ``r``."""

    a: tuple[int, ...]
    r: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.r):
            raise ValueError("rows of a Mullineux symbol must have equal length")

    def format(self) -> str:
        width = max((len(str(x)) for x in self.a + self.r), default=1)
        top = " ".join(str(x).rjust(width) for x in self.a)
        bot = " ".join(str(x).rjust(width) for x in self.r)
        return f"({top})\n({bot})"

    def to_json_dict(self) -> dict:
        return {"a": list(self.a), "r": list(self.r)}


def mullineux_symbol(la: Partition, p: int) -> MullineuxSymbol:
    """Strip p-rims down to the empty partition, recording sizes and row counts."""
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    la = partition(la)
    if not is_p_regular(la, p):
        raise ValueError(f"{la} is not {p}-regular")
    sizes, rows = [], []
    current = la
    while current:
        current, a, k = strip_p_rim(current, p)
        sizes.append(a)
        rows.append(k)
    return MullineuxSymbol(tuple(sizes), tuple(rows))


def _add_p_rim(mu: Partition, a: int, r: int, p: int) -> Partition:
    """The unique partition with r rows whose p-rim strip yields (``mu``, ``a``).

    Within one p-segment every passed-through row i satisfies
    mu_i = la_{i+1} - 1, so a choice of segment boundaries determines the
    candidate completely; candidates are validated by re-stripping.
    """
    if r < len(mu) or r < 1:
        raise ValueError(f"cannot add a p-rim of {a} cells onto {mu} with {r} rows")
    mu_pad = list(mu) + [0] * (r - len(mu))
    segments = (a + p - 1) // p
    sizes = [p] * (segments - 1) + [a - (segments - 1) * p]
    # d[i] = cells contributed by row i (1-based, i >= 2) when passed through.
    d = [0, 0] + [mu_pad[i - 2] - mu_pad[i - 1] + 1 for i in range(2, r + 1)]
    found = []

    def close_block(lam, start, end, size):
        interior = sum(d[start + 1 : end + 1])
        t_start = size - interior
        if t_start < 1:
            return None
        lam = list(lam)
        for i in range(start + 1, end + 1):
            lam[i - 1] = mu_pad[i - 2] + 1
        lam[start - 1] = mu_pad[start - 1] + t_start
        if start > 1 and lam[start - 2] < lam[start - 1]:
            return None
        if start < end and lam[start - 1] < lam[start]:
            return None
        return lam

    def search(lam, start, block):
        if block == segments - 1:
            candidate = close_block(lam, start, r, sizes[block])
            if candidate is not None and min(candidate) >= 1:
                found.append(tuple(candidate))
            return
        for end in range(start, r - (segments - 1 - block) + 1):
            if sum(d[start + 1 : end + 1]) > sizes[block] - 1:
                break
            candidate = close_block(lam, start, end, sizes[block])
            if candidate is not None:
                search(candidate, end + 1, block + 1)

    search([0] * r, 1, 0)
    valid = {cand for cand in found if strip_p_rim(cand, p) == (mu, a, r)}
    if len(valid) != 1:
        raise ValueError(f"no unique p-rim addition for {(mu, a, r)}: {sorted(valid)}")
    return valid.pop()


def partition_from_symbol(symbol: MullineuxSymbol, p: int) -> Partition:
    """Rebuild the partition encoded by a Mullineux symbol."""
    current: Partition = ()
    for a, r in zip(reversed(symbol.a), reversed(symbol.r)):
        current = _add_p_rim(current, a, r, p)
    return current


def mullineux(la: Partition, p: int) -> Partition:
    """The Mullineux image: same rim sizes, row counts a_j - r_j (+1 unless p | a_j)."""
    symbol = mullineux_symbol(la, p)
    flipped = tuple(a - r + (1 if a % p else 0) for a, r in zip(symbol.a, symbol.r))
    return partition_from_symbol(MullineuxSymbol(symbol.a, flipped), p)


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
        if mullineux(smaller, p) != remove_node(image, mirror):
            return False
    return True
