"""The Mullineux involution via p-rim stripping, and rim-hook parity.

The p-rim of a partition is walked from the top-right cell to the bottom-left
in segments of p cells; a full segment skips the rest of its final row.  Row i
(0-based) offers la_i - la_{i+1} + 1 cells, the row after the last counting as
length 1, so rows s..k offer b_s - b_{k+1} with b_j = la_j - j: the sums
telescope, and each segment ends where a bisection of the ascending -b_j finds it.
``_strip_p_rim`` takes the rim off segment by segment, and ``_add_p_rim`` puts it
back segment by segment from the bottom row up.  Stripping down to the empty
partition records the symbol (sizes stripped; row counts); the involution
replaces each row count r_j with a_j - r_j (+1 when p does not divide a_j):
``_flipped``, which ``_rebuild`` turns into the image.

The good-node rule m(la - A) = m(la) - B, res B = -res A (Ford-Kleshchev), is
checked once per pair {la, m(la)}, from both sides, by comparing strip chains
(``_good_node_sides``): no image is rebuilt.

The public functions check p and the partition once (``_regular``,
``_require_prime``, ``MullineuxSymbol``); the strip and add kernels check
nothing.  ``_add_p_rim`` still re-strips its one candidate, a partition it built.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import ge, sub

from .abacus import rim_hook_leg_sum
from .partitions import (
    Partition,
    _residue,
    _without,
    good_nodes,
    is_p_regular,
    is_prime,
    partition,
)


def _strip_p_rim(la: Partition, p: int) -> tuple[Partition, int, int]:
    """Strip the p-rim of a nonempty partition, unchecked: (smaller partition, cells removed, rows)."""
    nb = [*map(sub, range(len(la)), la), len(la) - 1]  # nb_j = j - la_j = -b_j, strictly ascending
    parts = [part - 1 for part in la[1:]] + [0]  # a row inside a segment keeps la_{i+1} - 1 cells
    s = 0  # the row where the open segment starts
    while (end := bisect_left(nb, nb[s] + p, s + 1)) <= len(la):  # rows s..end-1 fill it
        parts[end - 1] = end - 1 - nb[s] - p  # the row closing it keeps the rest
        s = end
    return tuple(parts[:len(parts) - parts.count(0)]), sum(la) - sum(parts), len(la)


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


def _require_prime(p) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")


def _regular(la: Partition, p: int) -> Partition:
    """``la`` as a partition, once p is a prime and ``la`` is p-regular: the input boundary."""
    _require_prime(p)
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
        current, a, k = _strip_p_rim(current, p)
        sizes.append(a)
        rows.append(k)
    return tuple(sizes), tuple(rows)


def _add_p_rim(mu: Partition, a: int, r: int, p: int) -> Partition:
    """The unique partition with r rows whose p-rim strip yields (``mu``, ``a``).

    The segments are placed from the bottom row up, the last first.  A row i
    passed through gets mu_{i-1} + 1 cells, so with c_t = mu_t - t the rows
    s+1..end of a segment give c_s - c_end: a segment of ``size`` cells starts
    in the lowest row s with c_{s-1} >= c_end + size (else in the top row), and
    row s takes the rest.  Re-stripping validates the one candidate.
    """
    if r < len(mu) or r < 1:
        raise ValueError(f"cannot add a p-rim of {a} cells onto {mu} with {r} rows")
    m = [*mu, *[0] * (r - len(mu))]
    nc = [*map(sub, range(r), m)]  # -c_t, strictly ascending
    la, end = m[:1] + [part + 1 for part in m[:-1]], r - 1  # end: the placed segment's bottom row
    for size in [a - p * ((a - 1) // p)] + [p] * min((a - 1) // p, r):  # r rows fit at most r segments
        start = bisect_right(nc, nc[end] - size, 0, end)
        la[start] = size + start - nc[end]
        end = start - 1
        if end < 0:
            break
    la[:start] = m[:start]  # rows above the top segment keep their cells
    if la[-1] < 1 or not all(map(ge, la, la[1:])) or _strip_p_rim(tuple(la), p) != (mu, a, r):
        raise ValueError(f"no unique p-rim addition for {(mu, a, r)}")
    return tuple(la)


def partition_from_symbol(symbol: MullineuxSymbol, p: int) -> Partition:
    """Rebuild the partition encoded by a Mullineux symbol."""
    _require_prime(p)
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
    return _rebuild(*_flipped(*_symbol_rows(la, p), p), p)


def _flipped(sizes, rows, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The symbol rows of the Mullineux image: each row count r becomes a - r (+1 unless p | a)."""
    return sizes, tuple([a - r + (1 if a % p else 0) for a, r in zip(sizes, rows)])


def parity(la: Partition, p: int) -> int:
    """+1 or -1: parity of the total leg length of a complete rim p-hook removal."""
    return -1 if rim_hook_leg_sum(la, p) % 2 else 1


def check_good_node_compatibility(la: Partition, p: int) -> bool:
    """Good nodes of ``la`` and of its image pair off with negated residues.

    For every good node A of residue alpha whose removal stays p-regular,
    the image must have a good node B of residue -alpha with
    m(la - A) = m(la) - B, and the same from the image's side.  Both
    sides are checked at once, by comparing strip chains.
    """
    la = _regular(la, p)
    return all(_good_node_sides(la, _mullineux(la, p), p))


def _good_node_sides(la: Partition, image: Partition, p: int) -> tuple[bool, bool]:
    """Whether the good-node rule holds from ``la``'s side and from the side of its image.

    A is ``la``'s good alpha-node and B the image's good (-alpha)-node, each side's p-regular
    removal keyed by alpha.  Each side whose removal stays p-regular needs m(la - A) = image - B.
    A p-regular partition is fixed by its symbol, so that holds when image - B is p-regular with
    the flipped strip chain of la - A: no image is rebuilt.
    """
    ours, theirs = ({sign * _residue(node, p) % p: smaller for node in good_nodes(mu, p)
                     if is_p_regular(smaller := _without(mu, node), p)}
                    for mu, sign in ((la, 1), (image, -1)))
    matched = {alpha for alpha in ours.keys() & theirs.keys()
               if _symbol_rows(theirs[alpha], p) == _flipped(*_symbol_rows(ours[alpha], p), p)}
    return ours.keys() <= matched, theirs.keys() <= matched
