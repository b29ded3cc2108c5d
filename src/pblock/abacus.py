"""Abacus displays: beta-numbers, bead moves, cores, quotients and pyramids.

Positions are 1-based, numbered row-major: position m sits on runner
``(m-1) % p + 1`` in row ``(m-1) // p + 1``.  A display with r beads encodes
the partition with beta-numbers ``beta_i = la_i + r - i + 1``, so the minimum
beta-number is 1.

Only this module places beads or shifts bits.  A display places them once (``_betas``,
``_rows``); the per-partition kernels read a private bead mask (``_mask``), whose bit x
is set iff position x + 1 holds a bead.  Runner counts are popcounts, a bead with a hole
right above marks a moved runner, and ``_decode`` reads the parts by runs: a bead's part
is the number of holes below it, so each run of beads, climbing from the lowest hole, is
one part.  ``_pushed_up`` is the core's mask and ``_moved`` moves beads down by a quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, lshift

from .partitions import (
    Node,
    Partition,
    _require_bead_count,
    _require_modulus,
    _require_odd_prime,
    is_p_regular,
    is_p_restricted,
    partition,
)


def default_bead_count(la: Partition, p: int) -> int:
    """Least multiple of p that accommodates the parts of ``la`` (at least p)."""
    _require_modulus(p)
    return p * max(1, -(-len(la) // p))


def _betas(la: Partition, r: int) -> list[int]:
    """Ascending positions of ``la``'s r >= len(la) beads: part i, 0-based, at la_i + r - i."""
    z = r - len(la)
    return [*range(1, z + 1), *map(add, reversed(la), range(z + 1, r + 1))]


def _rows(betas, p: int) -> list[list[int]]:
    """Rows of the ascending positions ``betas`` per runner: ``rows[j-1]`` for runner j."""
    rows = [[] for _ in range(p)]
    for m in betas:
        m -= 1
        rows[m % p].append(m // p + 1)
    return rows


def _mask(la: Partition, r: int) -> int:
    """The bead mask of ``la``'s r-bead display, by ``_betas``'s rule one block per run of equal parts."""
    k = len(la)
    mask, end = (1 << r - k) - 1, 0
    while end < k:
        start, part = end, la[end]
        end += 1
        while end < k and la[end] == part:
            end += 1
        mask |= (1 << end - start) - 1 << part + r - end
    return mask


def _comb(mask: int, p: int) -> int:
    """Bits 0, p, 2p, ... through the mask's top row: runner 1 of every row."""
    return ((1 << -(-mask.bit_length() // p) * p) - 1) // ((1 << p) - 1)


def _mask_weight(mask: int, p: int) -> int:
    """The p-weight: over each bead, the holes above it on its runner, k = 1, 2, ... rows up."""
    weight, below = 0, mask >> p
    while below:
        weight += (below & ~mask).bit_count()
        below >>= p
    return weight


def _counts(mask: int, p: int) -> tuple[int, ...]:
    """Beads per runner, left to right."""
    comb = _comb(mask, p)
    return tuple([(mask & comb << j).bit_count() for j in range(p)])


def _decode(mask: int) -> Partition:
    """Parts of the display ``mask``, read by runs of holes and beads from the lowest hole."""
    mask >>= (~mask & mask + 1).bit_length() - 1  # the beads of the zero parts
    parts, holes = [], 0
    while mask:
        holes += (run := (mask & -mask).bit_length() - 1)
        mask >>= run
        parts += [holes] * (run := (~mask & mask + 1).bit_length() - 1)
        mask >>= run
    parts.reverse()
    return tuple(parts)


def _components(mask: int, p: int) -> dict[int, Partition]:
    """Nonempty components by moved runner (a bead with a hole right above), bottom bead first:
    a bead weighs the holes above it on its runner, its row less its rank there."""
    hanging, comb, comps = mask >> p & ~mask, _comb(mask, p), {}
    while hanging:
        j = ((hanging & -hanging).bit_length() - 1) % p
        hanging &= ~(comb << j)
        beads, weights, rank = mask >> j & comb, [], 0
        while beads:
            row = ((bead := beads & -beads).bit_length() - 1) // p
            if row != rank:
                weights.append(row - rank)
            rank += 1
            beads ^= bead
        comps[j + 1] = tuple(weights[::-1])
    return comps


def _pushed_up(p: int, counts) -> int:
    """The pushed-up display with ``counts[j-1]`` beads on runner j: the core's."""
    return sum([((1 << c * p) - 1) // ((1 << p) - 1) << j for j, c in enumerate(counts)])


def _moved(p: int, counts, rest: int, moves) -> int:
    """The pushed-up display ``rest`` of ``counts``, the t-th lowest bead of runner j moved
    kappa_t rows down for each (j, kappa) in ``moves``: an XOR lifts the beads, an OR lands them."""
    mask = rest
    for j, kappa in moves:
        c = counts[j - 1]
        if len(kappa) > c:
            raise ValueError(f"component {kappa} needs more than {c} beads on runner {j}")
        lift = land = 0
        for t, part in enumerate(kappa):
            at = (c - 1 - t) * p + j - 1
            lift |= 1 << at
            land |= 1 << at + part * p
        mask = mask ^ lift | land
    if mask.bit_count() != rest.bit_count():
        raise ValueError(f"expected {rest.bit_count()} beads, got {mask.bit_count()}")
    return mask


def _pushed_left(mask: int, p: int, i: int) -> int:
    """The mask with the one removable bead on runner i (at m > 1, m - 1 empty) moved to m - 1."""
    beads = mask & ~(mask << 1) & _comb(mask, p) << i - 1 & ~1
    if not beads:
        raise ValueError(f"{_decode(mask)} has no removable bead on runner {i}")
    if beads & beads - 1:
        at = [m for m in range(1, beads.bit_length() + 1) if beads >> m - 1 & 1]
        raise RuntimeError(f"{_decode(mask)} has several removable beads on runner {i}: {at}")
    return mask ^ beads | beads >> 1


@dataclass(frozen=True)
class AbacusDisplay:
    """An immutable set of r occupied positions on p runners.

    ``rows[j-1]`` lists, ascending, the rows of the beads on runner j.
    """

    p: int
    r: int
    occupied: frozenset[int]
    rows: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _require_modulus(self.p)
        _require_bead_count(self.r, len(self.occupied))
        if len(self.occupied) != self.r:
            raise ValueError(f"expected {self.r} beads, got {len(self.occupied)}")
        ordered = sorted(self.occupied)
        if ordered and ordered[0] < 1:
            raise ValueError("positions are 1-based")
        object.__setattr__(self, "rows", tuple([tuple(beads) for beads in _rows(ordered, self.p)]))

    @classmethod
    def from_partition(cls, la: Partition, p: int, r: int) -> "AbacusDisplay":
        la = partition(la)
        _require_bead_count(r, len(la))
        return cls(p, r, frozenset(_betas(la, r)))

    @staticmethod
    def partition_from_runners(p: int, counts, components) -> Partition:
        """The partition with ``counts[j-1]`` beads on runner j, displaced by ``components[j-1]``."""
        _require_modulus(p)
        if len(components) != len(counts):
            raise ValueError(f"{len(counts)} runner counts but {len(components)} components")
        moves = [(j, kappa) for j, kappa in enumerate(components, start=1) if kappa]
        return _decode(_moved(p, counts, _pushed_up(p, counts), moves))

    def _bead_mask(self) -> int:
        """The display as a bead mask: bit m - 1 for each occupied position m."""
        return sum(map(lshift, repeat(1), map(add, self.occupied, repeat(-1))))

    def to_partition(self) -> Partition:
        return _decode(self._bead_mask())

    def runner(self, pos: int) -> int:
        return (pos - 1) % self.p + 1

    def beads_on_runner(self, i: int) -> list[int]:
        return [(t - 1) * self.p + i for t in self.rows[i - 1]]

    # -- runner-level data ----------------------------------------------------

    def counts(self) -> tuple[int, ...]:
        """Beads per runner, left to right."""
        return tuple([len(rows) for rows in self.rows])

    def components(self) -> tuple[Partition, ...]:
        """Bead weights per runner, bottom bead first: the left-to-right quotient."""
        comps = _components(self._bead_mask(), self.p)
        return tuple([comps.get(j, ()) for j in range(1, self.p + 1)])

    def weight(self) -> int:
        return _mask_weight(self._bead_mask(), self.p)

    def core(self) -> Partition:
        """The p-core: every runner's beads pushed up into its top rows."""
        return _decode(_pushed_up(self.p, self.counts()))

    # -- bead moves (each returns a new display) -----------------------------

    def _move(self, src: int, dst: int) -> "AbacusDisplay":
        if src not in self.occupied:
            raise ValueError(f"no bead at position {src}")
        if dst < 1 or dst in self.occupied:
            raise ValueError(f"cannot move bead to position {dst}")
        return AbacusDisplay(self.p, self.r, self.occupied - {src} | {dst})

    def push_left(self, pos: int) -> "AbacusDisplay":
        """Move a bead to the empty position before it (removes a node)."""
        return self._move(pos, pos - 1)

    def push_up(self, pos: int) -> "AbacusDisplay":
        """Move a bead one row up its runner (removes a rim p-hook)."""
        return self._move(pos, pos - self.p)

    # -- bead classification --------------------------------------------------

    def removable_beads(self) -> list[int]:
        return sorted(m for m in self.occupied if m > 1 and m - 1 not in self.occupied)

    def rim_hook_beads(self) -> list[int]:
        """Beads movable one row up; one per removable rim p-hook."""
        return sorted(m for m in self.occupied
                      if m - self.p >= 1 and m - self.p not in self.occupied)

    def leg_length(self, pos: int) -> int:
        """Leg length of the rim p-hook removed by ``push_up(pos)``: beads strictly between."""
        return sum(1 for b in self.occupied if pos - self.p < b < pos)

    def normal_beads(self) -> list[int]:
        """Removable beads passing the runner-count criterion.

        A removable bead in row t of runner i >= 2 is normal when, for every
        j >= 1, runner i carries at least as many beads in rows t+1..t+j as
        runner i-1 does.  On runner 1 the comparison is against runner p with
        the window shifted up one row (rows t..t+j-1).  As prefix counts: the
        k-th bead below row t on runner i sits no lower than the k-th on the
        compared runner, for every k up to the compared runner's count.
        """
        normals = []
        for i, mine in enumerate(self.rows, start=1):
            # Rows of the compared runner, level with runner i.  For runner 1,
            # row 1 stands for position 0, where no bead can move.
            left = self.rows[i - 2] if i > 1 else (1, *[t + 1 for t in self.rows[-1]])
            for t in mine:
                if t in left:
                    continue  # not removable
                below = [u for u in mine if u > t]
                rival = [u for u in left if u > t]
                if len(below) >= len(rival) and all(a <= b for a, b in zip(below, rival)):
                    normals.append((t - 1) * self.p + i)
        return sorted(normals)

    def bead_node(self, pos: int) -> Node:
        """The node of the decoded partition carried by the bead at ``pos``."""
        if pos not in self.occupied:
            raise ValueError(f"no bead at position {pos}")
        i = sorted(self.occupied, reverse=True).index(pos) + 1
        return (i, pos - self.r + i - 1)

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """Text grid in the style of an abacus figure: runner header, then rows."""
        height = max((rows[-1] for rows in self.rows if rows), default=1) + 1
        lines = [" ".join(map(str, range(1, self.p + 1))), "-" * (2 * self.p - 1)]
        for t in range(1, height + 1):
            lines.append(" ".join("●" if t in rows else "○" for rows in self.rows))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "r": self.r, "occupied": sorted(self.occupied)}


@dataclass(frozen=True)
class PQuotient:
    """A p-tuple of partitions recording how far each runner's beads sit below their rest position."""

    components: tuple[Partition, ...]
    numbering: str  # "left-to-right" or "reordered"

    def total(self) -> int:
        return sum(sum(c) for c in self.components)


@dataclass(frozen=True)
class Pyramid:
    """First-empty positions of the pushed-up display, with the runner relabelling.

    ``q`` is ascending; ``sigma[j-1]`` is the left-to-right runner carrying
    reordered label j.
    """

    p: int
    q: tuple[int, ...]
    sigma: tuple[int, ...]

    def entry(self, k: int, ell: int) -> int:
        if not 1 <= k < ell <= self.p:
            raise ValueError(f"need 1 <= k < ell <= p, got ({k}, {ell})")
        return (self.q[ell - 1] - self.q[k - 1]) // self.p

    def nonzero_entries(self) -> dict[tuple[int, int], int]:
        out = {}
        for k in range(1, self.p):
            for ell in range(k + 1, self.p + 1):
                b = self.entry(k, ell)
                if b:
                    out[(k, ell)] = b
        return out

    def runner_labels(self) -> tuple[int, ...]:
        """Label shown above each left-to-right runner after reordering."""
        labels = [0] * self.p
        for j, runner in enumerate(self.sigma, start=1):
            labels[runner - 1] = j
        return tuple(labels)


def p_core(la: Partition, p: int) -> Partition:
    return AbacusDisplay.from_partition(la, p, default_bead_count(la, p)).core()


def p_weight(la: Partition, p: int) -> int:
    return _p_weight(partition(la), p)


def _p_weight(la: Partition, p: int) -> int:
    """:func:`p_weight` for a partition and an ``int`` p >= 2, unchecked: no display is built."""
    return _mask_weight(_mask(la, default_bead_count(la, p)), p)


def rim_hook_removals(la: Partition, p: int) -> list[tuple[Partition, int]]:
    """One (smaller partition, leg length) pair per removable rim p-hook.

    Entries are ordered by the hook's hand, topmost hand first.  The leg
    length is the number of beta-numbers strictly between beta - p and beta.
    """
    display = AbacusDisplay.from_partition(la, p, default_bead_count(la, p))
    return [(display.push_up(m).to_partition(), display.leg_length(m))
            for m in reversed(display.rim_hook_beads())]


def rim_hook_leg_sum(la: Partition, p: int) -> int:
    """Total leg length over a complete rim p-hook removal, highest hand first.

    The walk moves the default display's beads in its mask: each hand is a bead below
    row 1 with a hole right above, and its leg the beads strictly between the two.  Any
    other removal order (:func:`rim_hook_removals` lists them) gives the same parity.
    """
    la = partition(la)
    mask, total = _mask(la, default_bead_count(la, p)), 0
    while hands := (mask & ~(mask << p)) >> p << p:
        x = hands.bit_length() - 1
        total += (mask >> x - p + 1 & (1 << p - 1) - 1).bit_count()
        mask ^= 1 << x | 1 << x - p
    return total


def _quotient_display(la: Partition, p: int, r: int | None) -> AbacusDisplay:
    display = AbacusDisplay.from_partition(la, p, default_bead_count(la, p) if r is None else r)
    if display.r % p != 0:
        raise ValueError(f"bead count {r} is not a multiple of {p}")
    return display


def p_quotient(la: Partition, p: int, r: int | None = None) -> PQuotient:
    """Left-to-right p-quotient; the bead count must be a multiple of p."""
    return PQuotient(_quotient_display(la, p, r).components(), "left-to-right")


def reordered_quotient(la: Partition, p: int, r: int | None = None) -> tuple[PQuotient, Pyramid]:
    """The quotient in the non left-to-right numbering, with its pyramid.

    The runners are relabelled so that the first empty positions of the
    pushed-up display come in ascending order; component j of the reordered
    quotient is the left-to-right component of the runner with label j.
    """
    return _reordered(_quotient_display(la, p, r))


def _pyramid(p: int, counts) -> Pyramid:
    """Runners, ``counts[j-1]`` beads on runner j, ordered by the first empty position."""
    q = tuple(sorted(c * p + j for j, c in enumerate(counts, start=1)))
    return Pyramid(p, q, tuple((m - 1) % p + 1 for m in q))


def _reordered(display: AbacusDisplay) -> tuple[PQuotient, Pyramid]:
    pyramid = _pyramid(display.p, display.counts())
    ltr = display.components()
    return PQuotient(tuple(ltr[runner - 1] for runner in pyramid.sigma), "reordered"), pyramid


def is_jm_fayers(la: Partition, p: int) -> bool:
    """Quotient/pyramid irreducibility test on the reordered display.

    With reordered quotient [mu_1, ..., mu_p] and pyramid B, the partition
    passes iff the interior components vanish, mu_1 is restricted and mu_p
    regular (both recursively passing), and the first row of mu_k plus the
    first column of mu_ell never exceeds B(k, ell) + 1.
    """
    _require_odd_prime(p)
    return _is_jm_fayers(partition(la), p)


def _is_jm_fayers(la: Partition, p: int) -> bool:
    """:func:`is_jm_fayers` for a partition and an odd prime, unchecked.

    On the default display's mask, a runner is moved iff one of its beads has a hole right
    above: the weight is 0 iff no bead has, and the interior components vanish iff only the
    runners with the least and the greatest first empty position q move.  Then each pair
    1 < k < ell < p bounds 0 by B(k, ell) + 1 >= 1.  As q ascends, B(1, ell) does not decrease
    in ell and B(k, p) does not increase in k, so only B(1, 2), B(p-1, p) and B(1, p) can bind.
    """
    mask = _mask(la, default_bead_count(la, p))
    hanging = mask >> p & ~mask  # the holes with a bead right below them
    if not hanging:
        return True
    comb = _comb(mask, p)
    q = sorted([c * p + j for j, c in enumerate(_counts(mask, p))])
    lo, hi = q[0] % p, q[-1] % p
    if hanging & ~(comb << lo | comb << hi):
        return False
    comps = _components(mask, p)
    first, last = comps.get(lo + 1, ()), comps.get(hi + 1, ())
    first_row, first_col = (first[0] if first else 0), len(last)
    if (first_row > (q[1] - q[0]) // p + 1 or first_col > (q[-1] - q[-2]) // p + 1
            or first_row + first_col > (q[-1] - q[0]) // p + 1):
        return False
    return (is_p_restricted(first, p) and _is_jm_fayers(first, p)
            and is_p_regular(last, p) and _is_jm_fayers(last, p))
